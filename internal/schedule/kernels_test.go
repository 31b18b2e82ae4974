package schedule_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// The canonical task graphs of the operations worked through in Section 3.2
// of the paper: the outer product (Figure 2) and vector normalization
// (Figure 4). Each operation comes in the paper's implementation variants,
// which trade streaming opportunities against buffer space; the tests below
// pin how they schedule, size their buffers and simulate. Matrix-matrix
// multiplication variants live in package onnx and in examples/matmul.

// OuterProductVariant selects one of the Figure 2 implementations.
type OuterProductVariant int

const (
	// OuterRowMajor (Figure 2, graph 1) replicates every element of u
	// through an upsampler and buffers v; u streams, and A comes out
	// row-major.
	OuterRowMajor OuterProductVariant = iota
	// OuterColMajor (graph 2) is the symmetric implementation: v streams
	// and A comes out column-major.
	OuterColMajor
	// OuterBuffered (graph 3) buffers both inputs; only the result can
	// stream.
	OuterBuffered
)

// OuterProduct builds A[n,m] = u[n] (x) v[m]^T as a canonical task graph.
// The returned sink receives the n*m result elements.
func OuterProduct(variant OuterProductVariant, n, m int64) (*core.TaskGraph, graph.NodeID, error) {
	if n < 1 || m < 1 {
		return nil, 0, fmt.Errorf("kernels: outer product needs positive sizes, got %d x %d", n, m)
	}
	tg := core.New()
	u := tg.AddSource("u", n)
	v := tg.AddSource("v", m)
	var mul graph.NodeID

	switch variant {
	case OuterRowMajor:
		// Every element of u is replicated m times; v is read n times from
		// a buffer.
		up := tg.AddCompute("rep.u", n, n*m)
		bv := tg.AddBuffer("v.buf", m, n*m)
		mul = tg.AddElementWise("mul", n*m)
		tg.MustConnect(u, up)
		tg.MustConnect(v, bv)
		tg.MustConnect(up, mul)
		tg.MustConnect(bv, mul)
	case OuterColMajor:
		up := tg.AddCompute("rep.v", m, n*m)
		bu := tg.AddBuffer("u.buf", n, n*m)
		mul = tg.AddElementWise("mul", n*m)
		tg.MustConnect(v, up)
		tg.MustConnect(u, bu)
		tg.MustConnect(up, mul)
		tg.MustConnect(bu, mul)
	case OuterBuffered:
		bu := tg.AddBuffer("u.buf", n, n*m)
		bv := tg.AddBuffer("v.buf", m, n*m)
		mul = tg.AddElementWise("mul", n*m)
		tg.MustConnect(u, bu)
		tg.MustConnect(v, bv)
		tg.MustConnect(bu, mul)
		tg.MustConnect(bv, mul)
	default:
		return nil, 0, fmt.Errorf("kernels: unknown outer product variant %d", variant)
	}

	sink := tg.AddSink("A", n*m)
	tg.MustConnect(mul, sink)
	if err := tg.Freeze(); err != nil {
		return nil, 0, err
	}
	return tg, sink, nil
}

// VectorNormVariant selects one of the Figure 4 implementations of
// y = x / ||x||.
type VectorNormVariant int

const (
	// NormBuffered (Figure 4, graph 1) stores x in a buffer read twice:
	// once by the norm reduction, once by the division. No pipelining
	// between the two phases.
	NormBuffered VectorNormVariant = iota
	// NormStreamed (graph 2) streams x directly to both the reduction and
	// the element-wise division. This pipelines, but the edge carrying x to
	// the division needs n elements of FIFO space or the graph deadlocks —
	// the situation Section 6 sizes for.
	NormStreamed
)

// VectorNorm builds the normalization of an n-element vector.
func VectorNorm(variant VectorNormVariant, n int64) (*core.TaskGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("kernels: vector norm needs a positive size, got %d", n)
	}
	tg := core.New()
	x := tg.AddSource("x", n)
	nrm := tg.AddCompute("nrm", n, 1)
	bn := tg.AddBuffer("nrm.buf", 1, n)
	div := tg.AddElementWise("div", n)
	y := tg.AddSink("y", n)

	switch variant {
	case NormBuffered:
		bx := tg.AddBuffer("x.buf", n, n)
		tg.MustConnect(x, bx)
		tg.MustConnect(x, nrm)
		tg.MustConnect(bx, div)
	case NormStreamed:
		rep := tg.AddElementWise("tee", n)
		tg.MustConnect(x, rep)
		tg.MustConnect(rep, nrm)
		tg.MustConnect(rep, div)
	default:
		return nil, fmt.Errorf("kernels: unknown vector norm variant %d", variant)
	}
	tg.MustConnect(nrm, bn)
	tg.MustConnect(bn, div)
	tg.MustConnect(div, y)
	if err := tg.Freeze(); err != nil {
		return nil, err
	}
	return tg, nil
}

func scheduleAll(t *testing.T, tg *core.TaskGraph) *schedule.Result {
	t.Helper()
	p := tg.NumComputeNodes()
	if p == 0 {
		p = 1
	}
	res, err := schedule.Schedule(tg, schedule.AllInOneBlock(tg), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOuterProductVariantsStreamAsClaimed: Section 3.2.1 says variant 1
// streams u, variant 2 streams v, variant 3 streams only the result. With
// everything co-scheduled, the streamed implementations finish earlier than
// the double-buffered one.
func TestOuterProductVariantsStreamAsClaimed(t *testing.T) {
	const n, m = 32, 16
	makespans := map[OuterProductVariant]float64{}
	for _, variant := range []OuterProductVariant{OuterRowMajor, OuterColMajor, OuterBuffered} {
		tg, _, err := OuterProduct(variant, n, m)
		if err != nil {
			t.Fatal(err)
		}
		res := scheduleAll(t, tg)
		st, err := desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
		if err != nil {
			t.Fatal(err)
		}
		if st.Deadlocked {
			t.Fatalf("variant %d deadlocked", variant)
		}
		makespans[variant] = res.Makespan
	}
	// Row-major streams u and only waits for the short v buffer, so it beats
	// the double-buffered variant. Col-major still buffers the long u input
	// (n > m here), so it can only match the buffered variant, not beat it.
	if makespans[OuterRowMajor] >= makespans[OuterBuffered] {
		t.Errorf("row-major (%g) should beat fully buffered (%g)",
			makespans[OuterRowMajor], makespans[OuterBuffered])
	}
	if makespans[OuterColMajor] > makespans[OuterBuffered] {
		t.Errorf("col-major (%g) should not lose to fully buffered (%g)",
			makespans[OuterColMajor], makespans[OuterBuffered])
	}
}

// TestOuterProductResultVolume: every variant delivers n*m elements.
func TestOuterProductResultVolume(t *testing.T) {
	for _, variant := range []OuterProductVariant{OuterRowMajor, OuterColMajor, OuterBuffered} {
		tg, sink, err := OuterProduct(variant, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := tg.Nodes[sink].In; got != 32 {
			t.Errorf("variant %d: sink receives %d, want 32", variant, got)
		}
	}
}

// TestVectorNormStreamedNeedsBuffer: the Figure 4 graph 2 pipeline
// deadlocks with unit FIFOs — the x stream to the divider must hold the
// whole vector while the norm reduction completes — and the Section 6
// analysis computes exactly that space.
func TestVectorNormStreamedNeedsBuffer(t *testing.T) {
	const n = 64
	tg, err := VectorNorm(NormStreamed, n)
	if err != nil {
		t.Fatal(err)
	}
	res := scheduleAll(t, tg)

	// With unit FIFOs everywhere: deadlock.
	st, err := desim.Simulate(tg, res, desim.Config{DefaultCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Deadlocked {
		t.Fatalf("expected deadlock with unit FIFOs, finished at %g", st.Makespan)
	}

	// With Equation 5 sizes: completes, and the tee->div edge holds the
	// full vector.
	caps := buffers.Sizes(tg, res)
	var teeDiv int64
	for _, e := range caps {
		if tg.Nodes[e.From].Name == "tee" && tg.Nodes[e.To].Name == "div" {
			teeDiv = e.Space
		}
	}
	if teeDiv < n {
		t.Errorf("tee->div FIFO = %d, want >= %d", teeDiv, n)
	}
	st, err = desim.Simulate(tg, res, desim.Config{FIFOCap: caps})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatalf("deadlock with computed sizes at cycle %d", st.DeadlockCycle)
	}
	if e := math.Abs(st.RelativeError(res.Makespan)); e > 0.10 {
		t.Errorf("relative error %.3f too large (sim %g, sched %g)", e, st.Makespan, res.Makespan)
	}
}

// TestVectorNormBufferedSafe: the Figure 4 graph 1 implementation cannot
// deadlock even with unit FIFOs (nothing streams across the buffer), at the
// cost of running the two phases back to back.
func TestVectorNormBufferedSafe(t *testing.T) {
	const n = 64
	buffered, err := VectorNorm(NormBuffered, n)
	if err != nil {
		t.Fatal(err)
	}
	resB := scheduleAll(t, buffered)
	st, err := desim.Simulate(buffered, resB, desim.Config{DefaultCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("buffered variant deadlocked with unit FIFOs")
	}

	streamed, err := VectorNorm(NormStreamed, n)
	if err != nil {
		t.Fatal(err)
	}
	// For a single vector both variants wait for the norm reduction before
	// dividing, so their makespans agree up to the extra tee pipeline hop;
	// the streamed variant pays off on sequences of vectors (Section 3.2.3).
	resS := scheduleAll(t, streamed)
	if resS.Makespan > resB.Makespan+2 {
		t.Errorf("streamed makespan %g should be within a hop of buffered %g",
			resS.Makespan, resB.Makespan)
	}
}

// TestKernelsRejectBadSizes: constructors validate their inputs.
func TestKernelsRejectBadSizes(t *testing.T) {
	if _, _, err := OuterProduct(OuterRowMajor, 0, 4); err == nil {
		t.Error("outer product accepted n=0")
	}
	if _, err := VectorNorm(NormStreamed, 0); err == nil {
		t.Error("vector norm accepted n=0")
	}
	if _, _, err := OuterProduct(OuterProductVariant(99), 2, 2); err == nil {
		t.Error("unknown outer variant accepted")
	}
	if _, err := VectorNorm(VectorNormVariant(99), 4); err == nil {
		t.Error("unknown norm variant accepted")
	}
}

// TestBufferSizingSeesBufferPaths: the tee node feeding both the reduction
// chain and the divider is detected as lying on an undirected cycle even
// though one path crosses a buffer node.
func TestBufferSizingSeesBufferPaths(t *testing.T) {
	tg, err := VectorNorm(NormStreamed, 16)
	if err != nil {
		t.Fatal(err)
	}
	res := scheduleAll(t, tg)
	var cycleEdges int
	var teeDivOnCycle bool
	for _, e := range buffers.Sizes(tg, res) {
		if e.OnCycle {
			cycleEdges++
			if tg.Nodes[e.From].Name == "tee" && tg.Nodes[e.To].Name == "div" {
				teeDivOnCycle = true
			}
		}
	}
	if !teeDivOnCycle {
		t.Errorf("tee->div not flagged as cycle edge (%d cycle edges found)", cycleEdges)
	}
}
