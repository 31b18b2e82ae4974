package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
)

// schedView is the part of a schedule the checks below read, taken from a
// served report or from a schedule.Result alike.
type schedView struct {
	Blocks   int
	Makespan float64
	BlockOf  []int
	PE       []int
	ST       []float64
	FO       []float64
	LO       []float64
}

func reportView(r *service.ScheduleReport) schedView {
	return schedView{Blocks: r.Blocks, Makespan: r.Makespan, BlockOf: r.BlockOf, PE: r.PE, ST: r.ST, FO: r.FO, LO: r.LO}
}

func resultView(r *schedule.Result) schedView {
	return schedView{Blocks: r.Partition.NumBlocks(), Makespan: r.Makespan, BlockOf: r.Partition.BlockOf, PE: r.PE, ST: r.ST, FO: r.FO, LO: r.LO}
}

// validate checks a schedule of tg on p PEs against the paper's
// definitions (Section 5.1), reading only the graph and the schedule's
// own numbers. It deliberately shares no code with the scheduler, so a
// scheduler bug cannot hide behind itself:
//   - every per-node array has one entry per node and every block index
//     is in range, with no block empty;
//   - ST <= FO <= LO for every node, all finite and non-negative;
//   - the makespan is the largest LO;
//   - compute nodes sit on a PE in [0, p), at most one per PE per block,
//     and passive nodes (buffers, sources, sinks) on PE -1;
//   - an edge never runs backwards in block order, and an edge between
//     blocks starts its consumer no earlier than its producer's LO (the
//     barrier between blocks).
func validate(tg *core.TaskGraph, p int, s schedView) error {
	n := tg.Len()
	for _, a := range []struct {
		name string
		len  int
	}{{"block_of", len(s.BlockOf)}, {"pe", len(s.PE)}, {"st", len(s.ST)}, {"fo", len(s.FO)}, {"lo", len(s.LO)}} {
		if a.len != n {
			return fmt.Errorf("%s has %d entries for %d nodes", a.name, a.len, n)
		}
	}
	if s.Blocks < 1 {
		return fmt.Errorf("%d blocks", s.Blocks)
	}
	for v, b := range s.BlockOf {
		if b < 0 || b >= s.Blocks {
			return fmt.Errorf("node %d in block %d of %d", v, b, s.Blocks)
		}
	}
	// The remaining checks are independent; each reports its first
	// finding.
	var errs []error
	first := func(err *error, format string, args ...any) {
		if *err == nil {
			*err = fmt.Errorf(format, args...)
		}
	}
	var order, device, sharing, backward, barrier error
	used := make([]bool, s.Blocks)
	owner := make(map[[2]int]int, n)
	maxLO := math.Inf(-1)
	for v := 0; v < n; v++ {
		used[s.BlockOf[v]] = true
		st, fo, lo := s.ST[v], s.FO[v], s.LO[v]
		for _, x := range []float64{st, fo, lo} {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				first(&order, "node %d has time %v", v, x)
			}
		}
		if !(st <= fo && fo <= lo) {
			first(&order, "node %d: ST %v, FO %v, LO %v out of order", v, st, fo, lo)
		}
		maxLO = math.Max(maxLO, lo)
		compute := tg.Nodes[v].Kind == core.Compute
		switch pe := s.PE[v]; {
		case compute && (pe < 0 || pe >= p):
			first(&device, "compute node %d on PE %d of %d", v, pe, p)
		case !compute && pe != -1:
			first(&device, "passive node %d on PE %d", v, pe)
		case compute:
			k := [2]int{s.BlockOf[v], pe}
			if u, taken := owner[k]; taken {
				first(&sharing, "nodes %d and %d share PE %d in block %d", u, v, pe, s.BlockOf[v])
			}
			owner[k] = v
		}
	}
	for b, ok := range used {
		if !ok {
			errs = append(errs, fmt.Errorf("block %d is empty", b))
			break
		}
	}
	if s.Makespan != maxLO {
		errs = append(errs, fmt.Errorf("makespan %v, largest LO %v", s.Makespan, maxLO))
	}
	for _, e := range tg.G.Edges() {
		u, v := int(e.From), int(e.To)
		switch bu, bv := s.BlockOf[u], s.BlockOf[v]; {
		case bu > bv:
			first(&backward, "edge %d->%d runs from block %d back to block %d", u, v, bu, bv)
		case bu < bv && s.ST[v] < s.LO[u]:
			first(&barrier, "edge %d->%d crosses blocks but ST %v precedes the producer's LO %v", u, v, s.ST[v], s.LO[u])
		}
	}
	for _, err := range []error{order, device, sharing, backward, barrier} {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// diffSchedule reports the first way got differs from want.
func diffSchedule(got, want schedView) error {
	if got.Blocks != want.Blocks {
		return fmt.Errorf("blocks %d, want %d", got.Blocks, want.Blocks)
	}
	if got.Makespan != want.Makespan {
		return fmt.Errorf("makespan %v, want %v", got.Makespan, want.Makespan)
	}
	for _, c := range []struct {
		name      string
		got, want []int
	}{{"block_of", got.BlockOf, want.BlockOf}, {"pe", got.PE, want.PE}} {
		if err := diffSlice(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"st", got.ST, want.ST}, {"fo", got.FO, want.FO}, {"lo", got.LO, want.LO}} {
		if err := diffSlice(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	return nil
}

func diffSlice[T comparable](name string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d entries, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// directSchedule schedules tg through the layer functions themselves —
// the reference a served or file-path schedule must equal.
func directSchedule(tg *core.TaskGraph, p int, v schedule.Variant) (*schedule.Result, error) {
	part, err := schedule.Algorithm1(tg, p, schedule.Options{Variant: v})
	if err != nil {
		return nil, err
	}
	return schedule.Schedule(tg, part, p)
}

// checkServed verifies one identity's first served report: structurally
// valid, and equal to the direct layer-function path on the same graph.
func checkServed(tg *core.TaskGraph, p int, v schedule.Variant, rep *service.ScheduleReport) error {
	if rep.Nodes != tg.Len() || rep.PEs != p {
		return fmt.Errorf("report for %d nodes on %d PEs, submitted %d nodes on %d PEs", rep.Nodes, rep.PEs, tg.Len(), p)
	}
	if err := validate(tg, p, reportView(rep)); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	want, err := directSchedule(tg, p, v)
	if err != nil {
		return fmt.Errorf("direct path: %w", err)
	}
	if err := diffSchedule(reportView(rep), resultView(want)); err != nil {
		return fmt.Errorf("differs from the direct path: %w", err)
	}
	return nil
}

// comparableArtifact encodes a sweep artifact without the values that
// measure wall time — Figure 12's "seconds" (docs/ARTIFACTS.md) — so a
// distributed artifact can be compared byte for byte with a local one.
func comparableArtifact(a *results.Artifact) ([]byte, error) {
	c := *a
	c.Cells = make([]results.Cell, len(a.Cells))
	for i, cell := range a.Cells {
		if v := cell.Key.Variant; v == experiments.VariantFig12Str || v == experiments.VariantFig12CSDF {
			vals := make(map[string]float64, len(cell.Values))
			for k, x := range cell.Values {
				if k != "seconds" {
					vals[k] = x
				}
			}
			cell.Values = vals
		}
		c.Cells[i] = cell
	}
	return json.Marshal(&c)
}
