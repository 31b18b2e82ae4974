// Package onnx lowers neural-network operator graphs into canonical task
// graphs, reproducing the Section 7.3 methodology: the paper extracts ONNX
// operator graphs with DaCeML and converts each operator into canonical
// nodes — element-wise tasks for Add/Sub/Relu, downsamplers for
// MaxPool/ReduceSum, buffer nodes for Reshape/Transpose/Slice, and explicit
// canonical subgraphs (Section 3.2) for MatMul, Conv (via im2col), and
// Softmax. Since DaCeML and the ONNX runtime are external dependencies, the
// operator graphs of ResNet-50 and the transformer encoder layer are built
// here directly with the published layer shapes; the canonical graphs the
// scheduler consumes are equivalent.
//
// Values flowing between operators are either a single element stream or a
// column-split bundle of parallel streams (the natural output shape of the
// paper's MatMul implementation 2, where one downsampler task produces each
// output column). Element-wise operators keep bundles split — preserving
// both parallelism and pipelining, which is exactly where the paper reports
// streaming gains (BatchNorm/ReLU/MaxPool chains) — while operators that
// need the full tensor merge through a buffer node first.
//
// Entry points: ResNet50, TransformerEncoder, MLP, and VGG build frozen
// model graphs from their Config shapes (Table 2 uses the first two, at
// tiny and full sizes; the experiment layer lists them as onnx:*
// workloads); Builder is the operator-level API new models compose.
// Construction is deterministic in the config — no randomness — so model
// cells are shared across runs through the content-addressed results cache.
package onnx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Value is a tensor flowing between operators: one or more parallel element
// streams of PerPart elements each.
type Value struct {
	Parts   []graph.NodeID
	PerPart int64
}

// Total returns the tensor's element count.
func (v Value) Total() int64 {
	if len(v.Parts) == 0 {
		return v.PerPart // preloaded weight: resident in memory, no producer
	}
	return int64(len(v.Parts)) * v.PerPart
}

// Split reports whether the value is a multi-stream bundle.
func (v Value) Split() bool { return len(v.Parts) > 1 }

// Slice returns the sub-bundle [from, to) of a split value; used for
// zero-cost head slicing of attention tensors (the paper maps ONNX Slice to
// a buffer node, but slicing a column bundle needs no data movement).
func (v Value) Slice(from, to int) Value {
	return Value{Parts: v.Parts[from:to], PerPart: v.PerPart}
}

// Concat joins bundles with equal PerPart into one (ONNX Concat along the
// split axis).
func Concat(vs ...Value) Value {
	out := Value{PerPart: vs[0].PerPart}
	for _, v := range vs {
		if v.PerPart != out.PerPart {
			panic("onnx: Concat with mismatched column sizes")
		}
		out.Parts = append(out.Parts, v.Parts...)
	}
	return out
}

// Builder assembles a canonical task graph operator by operator.
type Builder struct {
	TG *core.TaskGraph
	n  int // name uniquifier
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{TG: core.New()} }

func (b *Builder) uniq(name string) string {
	b.n++
	return fmt.Sprintf("%s#%d", name, b.n)
}

// Input adds a graph input read from global memory.
func (b *Builder) Input(name string, numel int64) Value {
	id := b.TG.AddSource(b.uniq(name), numel)
	return Value{Parts: []graph.NodeID{id}, PerPart: numel}
}

// Weight declares a parameter tensor. Weights are resident in global memory
// before execution starts (the producer-less [KM] buffers of Figure 3), so
// no source task is created: the returned value has no producing parts, and
// the buffer node that replays it inside MatMul/Conv is born filled.
func (b *Builder) Weight(name string, numel int64) Value {
	return Value{PerPart: numel}
}

// Output sinks a value into global memory. Split values connect their parts
// directly (a sink receives the same volume on every input edge).
func (b *Builder) Output(name string, v Value) {
	id := b.TG.AddSink(b.uniq(name), v.PerPart)
	for _, p := range v.Parts {
		b.TG.MustConnect(p, id)
	}
}

// Merge collapses a split value into a single stream through a buffer node
// (the canonical rendering of ONNX Reshape/Transpose/Concat on real data).
func (b *Builder) Merge(name string, v Value) Value {
	if !v.Split() {
		return v
	}
	buf := b.TG.AddBuffer(b.uniq(name+".merge"), v.PerPart, v.Total())
	for _, p := range v.Parts {
		b.TG.MustConnect(p, buf)
	}
	return Value{Parts: []graph.NodeID{buf}, PerPart: v.Total()}
}

// Reshape passes a tensor through a buffer node, modeling ONNX
// Reshape/Transpose. A split input feeds the same buffer directly, so no
// second buffering stage is introduced.
func (b *Builder) Reshape(name string, v Value, outNumel int64) Value {
	return b.bufferInto(name, v, outNumel)
}

// bufferInto stores a (possibly split) value into one buffer node emitting
// outNumel elements. Collapsing the merge and the reshape/replay into a
// single buffer avoids back-to-back buffers, which would serialize the
// pipeline twice.
func (b *Builder) bufferInto(name string, v Value, outNumel int64) Value {
	buf := b.TG.AddBuffer(b.uniq(name), v.PerPart, outNumel)
	for _, p := range v.Parts {
		b.TG.MustConnect(p, buf)
	}
	return Value{Parts: []graph.NodeID{buf}, PerPart: outNumel}
}

// EltWise applies an n-ary element-wise operator (Add, Sub, Mul, Div, Relu,
// Gelu, folded BatchNorm, ...). Split inputs with identical layout stay
// split, one task per column; otherwise everything merges first.
func (b *Builder) EltWise(name string, vs ...Value) Value {
	if len(vs) == 0 {
		panic("onnx: EltWise needs at least one input")
	}
	aligned := true
	for _, v := range vs[1:] {
		if len(v.Parts) != len(vs[0].Parts) || v.PerPart != vs[0].PerPart {
			aligned = false
			break
		}
	}
	if !aligned {
		for i := range vs {
			vs[i] = b.Merge(name, vs[i])
		}
	}
	out := Value{PerPart: vs[0].PerPart}
	for i := range vs[0].Parts {
		t := b.TG.AddElementWise(b.uniq(name), vs[0].PerPart)
		for _, v := range vs {
			b.TG.MustConnect(v.Parts[i], t)
		}
		out.Parts = append(out.Parts, t)
	}
	return out
}

// Downsample applies a reduction with the given output size per part
// (MaxPool, ReduceSum, pooling): one downsampler task per column.
func (b *Builder) Downsample(name string, v Value, outPerPart int64) Value {
	out := Value{PerPart: outPerPart}
	for _, p := range v.Parts {
		t := b.TG.AddCompute(b.uniq(name), v.PerPart, outPerPart)
		b.TG.MustConnect(p, t)
		out.Parts = append(out.Parts, t)
	}
	return out
}

// MatMul lowers C[n,m] = A[n,k] * B[k,m] with the paper's implementation 2
// (Figure 3): A streams row-by-row through a replicating element-wise task
// into m parallel matrix-vector downsamplers, B is buffered and replayed n
// times, and the result is a column-split bundle of m streams of n elements.
func (b *Builder) MatMul(name string, a, bv Value, n, k, m int64) Value {
	if a.Total() != n*k {
		panic(fmt.Sprintf("onnx: %s: A has %d elements, want %d*%d", name, a.Total(), n, k))
	}
	if bv.Total() != k*m {
		panic(fmt.Sprintf("onnx: %s: B has %d elements, want %d*%d", name, bv.Total(), k, m))
	}
	a = b.Merge(name+".A", a)

	repl := b.TG.AddElementWise(b.uniq(name+".repl"), n*k)
	b.TG.MustConnect(a.Parts[0], repl)

	// B feeds one buffer that replays it n times ([KM] buffer of Figure 3);
	// a split B connects directly, avoiding a second buffering stage.
	bbuf := b.bufferInto(name+".Bbuf", bv, n*k).Parts[0]

	out := Value{PerPart: n}
	for i := int64(0); i < m; i++ {
		d := b.TG.AddCompute(b.uniq(name+".mv"), n*k, n)
		b.TG.MustConnect(repl, d)
		b.TG.MustConnect(bbuf, d)
		out.Parts = append(out.Parts, d)
	}
	return out
}

// Conv lowers a 2D convolution with the im2col approach (Section 7.3): a
// buffer node materializes the patch matrix [hwOut x cin*kk], which
// multiplies the filter matrix [cin*kk x cout]. hwIn/hwOut are spatial
// element counts (H*W), kk is the kernel footprint (Kh*Kw).
func (b *Builder) Conv(name string, x Value, hwIn, cin, kk, cout, hwOut int64) Value {
	cols := b.bufferInto(name+".im2col", x, hwOut*cin*kk)
	w := b.Weight(name+".W", cin*kk*cout)
	return b.MatMul(name, cols, w, hwOut, cin*kk, cout)
}

// BatchNorm applies inference-time batch normalization: scale and shift with
// folded constants, one element-wise task per column.
func (b *Builder) BatchNorm(name string, v Value) Value { return b.EltWise(name+".bn", v) }

// ReLU applies the rectifier, one element-wise task per column.
func (b *Builder) ReLU(name string, v Value) Value { return b.EltWise(name+".relu", v) }

// MaxPool reduces each column spatially by the given factor.
func (b *Builder) MaxPool(name string, v Value, hwOut int64) Value {
	return b.Downsample(name+".pool", v, hwOut)
}

// GlobalAvgPool reduces each column to one element.
func (b *Builder) GlobalAvgPool(name string, v Value) Value {
	return b.Downsample(name+".gap", v, 1)
}

// Softmax lowers the numerically stable softmax over rows*cols elements
// (cols per row) as the canonical subgraph of Figure 5: max-reduce, buffer,
// subtract, exponentiate, sum-reduce, buffer, divide. The exponentials are
// computed once and buffered for both the denominator and the division.
func (b *Builder) Softmax(name string, v Value, rows, cols int64) Value {
	v = b.Merge(name+".x", v)
	x := v.Parts[0]
	total := rows * cols
	if v.PerPart != total {
		panic(fmt.Sprintf("onnx: %s: softmax input %d != %d*%d", name, v.PerPart, rows, cols))
	}

	dmax := b.TG.AddCompute(b.uniq(name+".max"), total, rows)
	b.TG.MustConnect(x, dmax)
	bx := b.TG.AddBuffer(b.uniq(name+".xbuf"), total, total)
	b.TG.MustConnect(x, bx)
	bmax := b.TG.AddBuffer(b.uniq(name+".maxbuf"), rows, total)
	b.TG.MustConnect(dmax, bmax)

	sub := b.TG.AddElementWise(b.uniq(name+".sub"), total)
	b.TG.MustConnect(bx, sub)
	b.TG.MustConnect(bmax, sub)
	exp := b.TG.AddElementWise(b.uniq(name+".exp"), total)
	b.TG.MustConnect(sub, exp)

	dsum := b.TG.AddCompute(b.uniq(name+".sum"), total, rows)
	b.TG.MustConnect(exp, dsum)
	bexp := b.TG.AddBuffer(b.uniq(name+".expbuf"), total, total)
	b.TG.MustConnect(exp, bexp)
	bsum := b.TG.AddBuffer(b.uniq(name+".sumbuf"), rows, total)
	b.TG.MustConnect(dsum, bsum)

	div := b.TG.AddElementWise(b.uniq(name+".div"), total)
	b.TG.MustConnect(bexp, div)
	b.TG.MustConnect(bsum, div)
	return Value{Parts: []graph.NodeID{div}, PerPart: total}
}

// LayerNorm lowers layer normalization over rows of cols elements following
// the vector-normalization pattern of Section 3.2.3 (implementation 1): the
// input is buffered because it is read twice, the per-row statistics are
// buffered and replayed, and an element-wise task applies the normalization
// together with the affine transform.
func (b *Builder) LayerNorm(name string, v Value, rows, cols int64) Value {
	v = b.Merge(name+".x", v)
	x := v.Parts[0]
	total := rows * cols

	bx := b.TG.AddBuffer(b.uniq(name+".xbuf"), total, total)
	b.TG.MustConnect(x, bx)
	stat := b.TG.AddCompute(b.uniq(name+".stat"), total, rows)
	b.TG.MustConnect(x, stat)
	bstat := b.TG.AddBuffer(b.uniq(name+".statbuf"), rows, total)
	b.TG.MustConnect(stat, bstat)

	norm := b.TG.AddElementWise(b.uniq(name+".norm"), total)
	b.TG.MustConnect(bx, norm)
	b.TG.MustConnect(bstat, norm)
	return Value{Parts: []graph.NodeID{norm}, PerPart: total}
}

// Finish validates and freezes the built graph.
func (b *Builder) Finish() (*core.TaskGraph, error) {
	if err := b.TG.Freeze(); err != nil {
		return nil, err
	}
	return b.TG, nil
}
