package experiments

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/onnx"
)

// Workload is one named source of task graphs: a synthetic random family
// (internal/synth), a static ONNX model graph (internal/onnx), or any future
// scenario. Workloads feed the same Spec → Plan → CellJob pipeline: their
// GraphIDs address cells in artifacts, their builders are memoized by
// the GraphCache, and the content fingerprint of the built graph keys the
// persistent results cache — so a new workload inherits parallel and
// distributed runs and caching for free.
type Workload interface {
	// Name is the workload table key, e.g. "synth:fft" or "onnx:resnet".
	Name() string
	// Family is the display name used in Job identities and table headers,
	// e.g. "FFT" or "Resnet-50".
	Family() string
	// Instances is how many distinct graphs a run with opt generates
	// (1 for static model graphs).
	Instances(opt Options) int
	// GraphID names instance g for cell keys and graph caching; it must be
	// unique across every workload and option set that can share a plan.
	GraphID(opt Options, g int) string
	// Build constructs instance g. Construction of a generated instance is
	// deterministic in (opt, g).
	Build(opt Options, g int) (*core.TaskGraph, error)
	// PEs is the PE sweep the workload is evaluated at.
	PEs() []int
}

// sweepFamilies are the four synthetic families of the Figure 10-13 sweeps,
// in figure order; the heft, pipeline and placement extensions run over the
// same graphs.
var sweepFamilies = func() []*synthWorkload {
	topos := Topologies()
	keys := []string{"synth:chain", "synth:fft", "synth:gaussian", "synth:cholesky"}
	fs := make([]*synthWorkload, len(keys))
	for i, key := range keys {
		fs[i] = &synthWorkload{key: key, topo: topos[i]}
	}
	return fs
}()

// ablationFamilies adds the reconvergent diamond, which triggers the
// Figure 9 failure mode, to the sweep families.
var ablationFamilies = append(slices.Clip(sweepFamilies), &synthWorkload{key: "synth:diamond", topo: diamondTopology()})

// The ONNX model graphs. The tiny/full pairs carry Table 2's PE sweeps
// (full) and their proportionally scaled quick counterparts (tiny); the
// graph IDs are the historical "model:<name>/<size>" cell addresses.
var (
	table2Tiny = []Workload{
		&modelWorkload{"onnx:resnet", "Resnet-50", "model:Resnet-50/tiny", []int{64, 128, 192, 256},
			func() (*core.TaskGraph, error) { return onnx.ResNet50(onnx.TinyResNet50()) }},
		&modelWorkload{"onnx:encoder", "Transformer encoder layer", "model:Transformer-encoder/tiny", []int{32, 64, 96, 128},
			func() (*core.TaskGraph, error) { return onnx.TransformerEncoder(onnx.TinyEncoder()) }},
	}
	table2Full = []Workload{
		&modelWorkload{"onnx:resnet-full", "Resnet-50", "model:Resnet-50/full", []int{512, 1024, 1536, 2048},
			func() (*core.TaskGraph, error) { return onnx.ResNet50(onnx.FullResNet50()) }},
		&modelWorkload{"onnx:encoder-full", "Transformer encoder layer", "model:Transformer-encoder/full", []int{256, 512, 768, 1024, 2048},
			func() (*core.TaskGraph, error) { return onnx.TransformerEncoder(onnx.BaseEncoder()) }},
	}
	otherModels = []Workload{
		&modelWorkload{"onnx:vgg", "VGG-16", "model:VGG-16/tiny", []int{64, 128, 256},
			func() (*core.TaskGraph, error) { return onnx.VGG(onnx.TinyVGG()) }},
		&modelWorkload{"onnx:vgg-full", "VGG-16", "model:VGG-16/full", []int{512, 1024, 2048},
			func() (*core.TaskGraph, error) { return onnx.VGG(onnx.FullVGG16()) }},
		&modelWorkload{"onnx:mlp", "MLP", "model:MLP/tiny", []int{16, 32, 64},
			func() (*core.TaskGraph, error) {
				return onnx.MLP(onnx.MLPConfig{Batch: 64, Layers: []int64{256, 512, 512, 128, 10}})
			}},
		// The million-task deep MLP is deliberately outside the scale
		// experiment's job list — building a ~10^6-node model graph is
		// itself seconds of work — and is exercised by the scale-smoke
		// pipeline test instead.
		&modelWorkload{"onnx:mlp-deep", "MLP", "model:MLP/deep", []int{256},
			func() (*core.TaskGraph, error) { return onnx.MLP(onnx.DeepMLP(980, 512, 64)) }},
	}
)

// workloadTable lists every workload. Names are unique
// (TestTableNamesUnique); LookupWorkload and WorkloadNames read it.
var workloadTable = slices.Concat(asWorkloads(ablationFamilies), table2Tiny, table2Full, otherModels, asWorkloads(scaleFamilies))

// asWorkloads widens a slice of one workload implementation.
func asWorkloads[W Workload](ws []W) []Workload {
	out := make([]Workload, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

// LookupWorkload returns the workload with the given name.
func LookupWorkload(name string) (Workload, error) {
	for _, w := range workloadTable {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see -list-variants)", name)
}

// WorkloadNames returns every workload name, sorted.
func WorkloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name()
	}
	sort.Strings(names)
	return names
}

// buildFunc adapts a workload instance to the infallible builder the
// GraphCache expects. Synthetic generators cannot fail; a static model graph
// failing to build is a bug in its fixed configuration.
func buildFunc(w Workload, opt Options, g int) func() *core.TaskGraph {
	return func() *core.TaskGraph {
		tg, err := w.Build(opt, g)
		if err != nil {
			panic(fmt.Sprintf("experiments: building workload %s instance %d: %v", w.Name(), g, err))
		}
		return tg
	}
}

// synthWorkload adapts one Topology (a seeded random family) to the
// workload table. Instance g of a run is built from seed opt.Seed+g,
// exactly as the sequential references do.
type synthWorkload struct {
	key  string
	topo Topology
}

func (w *synthWorkload) Name() string              { return w.key }
func (w *synthWorkload) Family() string            { return w.topo.Name }
func (w *synthWorkload) Instances(opt Options) int { return opt.Graphs }
func (w *synthWorkload) PEs() []int                { return w.topo.PEs }

func (w *synthWorkload) GraphID(opt Options, g int) string {
	return graphID(w.topo.Name, opt, g)
}

func (w *synthWorkload) Build(opt Options, g int) (*core.TaskGraph, error) {
	return w.topo.Build(newRng(opt.Seed+int64(g)), opt.Config), nil
}

// modelWorkload adapts one static ONNX model graph. The graph is a pure
// function of its fixed configuration, so there is exactly one instance and
// options do not enter the graph ID.
type modelWorkload struct {
	key    string
	family string
	gid    string
	pes    []int
	build  func() (*core.TaskGraph, error)
}

func (w *modelWorkload) Name() string                { return w.key }
func (w *modelWorkload) Family() string              { return w.family }
func (w *modelWorkload) Instances(Options) int       { return 1 }
func (w *modelWorkload) PEs() []int                  { return w.pes }
func (w *modelWorkload) GraphID(Options, int) string { return w.gid }
func (w *modelWorkload) Build(Options, int) (*core.TaskGraph, error) {
	return w.build()
}
