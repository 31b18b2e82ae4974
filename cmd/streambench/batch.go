package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// batchPEs is the device size of every batch-xl run.
const batchPEs = 256

// batchFile is one graph file of batch-xl and the generator that wrote
// it, kept so verification can rebuild the graph instead of holding it.
type batchFile struct {
	name  string
	path  string
	build func() (*core.TaskGraph, error)
}

type batchBench struct {
	e     *env
	dir   string
	files []batchFile
}

// setupBatchXL writes batch-xl's graph files: a Gaussian-elimination and
// a Cholesky graph of about 10^5 nodes, with volumes drawn from the seed,
// and a 200-layer deep MLP of about 2*10^5 nodes, where the scheduler's
// growth with depth shows (its 10^6-node form takes seconds per stage,
// too long for a run to repeat).
func setupBatchXL(_ context.Context, e *env) (instance, error) {
	nodes, depth, width := 100_000, 200, int64(512)
	if e.smoke {
		nodes, depth, width = 2_000, 4, 32
	}
	cfg := synth.DefaultConfig()
	seed := e.seed
	files := []batchFile{
		{name: "gaussian", build: func() (*core.TaskGraph, error) {
			return synth.Gaussian(synth.GaussianFor(nodes), rand.New(rand.NewSource(seed)), cfg), nil
		}},
		{name: "cholesky", build: func() (*core.TaskGraph, error) {
			return synth.Cholesky(synth.CholeskyFor(nodes), rand.New(rand.NewSource(seed+1)), cfg), nil
		}},
		{name: "mlp", build: func() (*core.TaskGraph, error) {
			return onnx.MLP(onnx.DeepMLP(depth, width, 64))
		}},
	}
	dir, err := e.mkWork("batch-xl-")
	if err != nil {
		return nil, err
	}
	b := &batchBench{e: e, dir: dir, files: files}
	for i := range files {
		f := &files[i]
		f.path = filepath.Join(dir, f.name+".json")
		if err := writeGraph(f.path, f.build); err != nil {
			b.close()
			return nil, fmt.Errorf("writing %s: %w", f.name, err)
		}
	}
	return b, nil
}

func writeGraph(path string, build func() (*core.TaskGraph, error)) error {
	tg, err := build()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := tg.EncodeJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (b *batchBench) close() { os.RemoveAll(b.dir) }

// batchRun is what one file's trip through the batch path produced; the
// decoded graph itself is dropped so only one is alive at a time.
type batchRun struct {
	res   *schedule.Result
	sized int // streaming edges buffers.Sizes sized
}

// runFile is the cmd/streamsched batch sequence: the graph file through
// core.DecodeJSON, then schedule.Algorithm1, schedule.Schedule and
// buffers.Sizes, one child span per stage under parent.
func (b *batchBench) runFile(f batchFile, parent, root int64) (batchRun, error) {
	tr := b.e.tr
	var r batchRun
	var tg *core.TaskGraph
	var err error
	tr.timed("core.decode", "batch", parent, root, func() {
		var fh *os.File
		if fh, err = os.Open(f.path); err != nil {
			return
		}
		defer fh.Close()
		tg, err = core.DecodeJSON(bufio.NewReaderSize(fh, 1<<20))
	})
	if err != nil {
		return r, err
	}
	var part schedule.Partition
	tr.timed("schedule.partition", "batch", parent, root, func() {
		part, err = schedule.Algorithm1(tg, batchPEs, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		return r, err
	}
	tr.timed("schedule.schedule", "batch", parent, root, func() { r.res, err = schedule.Schedule(tg, part, batchPEs) })
	if err != nil {
		return r, err
	}
	tr.timed("buffers.sizes", "batch", parent, root, func() { r.sized = len(buffers.Sizes(tg, r.res)) })
	return r, nil
}

// run is a closed loop of passes, each running every file once, until
// the window has elapsed. The first run of each file is kept; every later
// one must equal it, and after the window it must equal the direct path
// on the generated graph and pass the validator.
func (b *batchBench) run(ctx context.Context) (*outcome, error) {
	tr := b.e.tr
	o := newOutcome()
	first := make([]*batchRun, len(b.files))
	var passMs, passCPU, passSteal, mlpMs, gaps []float64
	var runErr error
	u := measure(func() {
		start := time.Now()
		last := start
		for time.Since(start) < b.e.window && ctx.Err() == nil {
			passStart := now()
			gaps = append(gaps, ms(passStart.at.Sub(last)))
			pass := tr.newID()
			for i, f := range b.files {
				o.attempted++
				id := tr.newID()
				m := now()
				r, err := b.runFile(f, id, pass)
				iv := m.to(now())
				tr.add(span{ID: id, Parent: pass, Root: pass, Name: f.name, Cat: "batch", Start: m.at, End: m.at.Add(iv.wall)})
				if err != nil {
					runErr = fmt.Errorf("%s: %w", f.name, err)
					return
				}
				if f.name == "mlp" {
					mlpMs = append(mlpMs, iv.wallMs())
				}
				if first[i] == nil {
					first[i] = &r
				} else if err := diffSchedule(resultView(r.res), resultView(first[i].res)); err != nil {
					o.failed++
					o.problem("%s: a repeated run differs from the first: %v", f.name, err)
				}
			}
			iv := passStart.to(now())
			last = passStart.at.Add(iv.wall)
			passMs = append(passMs, iv.wallMs())
			passCPU = append(passCPU, iv.cpuMs())
			passSteal = append(passSteal, iv.steal)
			tr.add(span{ID: pass, Name: "pass", Cat: "batch", Start: passStart.at, End: last})
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var rp *replayer
	if tr != nil {
		dir, err := b.e.mkWork("replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if rp, err = newReplayer(tr, dir); err != nil {
			return nil, err
		}
	}
	for i, f := range b.files {
		// One graph at a time: the three together would double the
		// run's peak memory.
		tg, err := f.build()
		if err != nil {
			return nil, err
		}
		r := first[i]
		if err := validate(tg, batchPEs, resultView(r.res)); err != nil {
			o.failed++
			o.problem("%s: invalid schedule: %v", f.name, err)
		}
		want, err := directSchedule(tg, batchPEs, schedule.SBLTS)
		if err != nil {
			return nil, err
		}
		if err := diffSchedule(resultView(r.res), resultView(want)); err != nil {
			o.failed++
			o.problem("%s: the file path differs from the direct path: %v", f.name, err)
		}
		if got, want := r.sized, len(buffers.Sizes(tg, want)); got != want {
			o.failed++
			o.problem("%s: %d sized edges, the direct path %d", f.name, got, want)
		}
		if rp != nil {
			err := rp.replay(replayInput{id: f.name, tg: tg, pes: batchPEs, variant: schedule.SBLTS, varName: variantNames[0]})
			if err != nil {
				return nil, err
			}
		}
	}

	o.e2e["p50_ms"] = percentile(passMs, 0.5)
	o.e2e["p75_ms"] = percentile(passMs, 0.75)
	o.e2e["alt_p50_ms"] = percentile(mlpMs, 0.5)
	o.e2e["cpu_ms_per_op"] = median(passCPU)
	o.layer["host.steal_share"] = median(passSteal)
	u.layers(o, len(passMs))
	o.layer["loadgen.lag_p99_ms"] = percentile(gaps, 0.99)
	if rp != nil {
		rp.st.layers(o.layer)
	}
	return o, nil
}
