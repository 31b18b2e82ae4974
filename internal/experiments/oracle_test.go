package experiments

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/schedule"
)

// The sequential oracles below are what the runner-equivalence tests hold
// the concurrent engine to.

// RunSweepSequential is the single-goroutine reference implementation of the
// sweep; RunPlan over the sweep's grid must reproduce its aggregates
// exactly (runSweep). Unlike the
// engine it panics on scheduler errors. It calls the raw schedule, buffers
// and desim entry points rather than EvalContext.Evaluate, so the
// equivalence tests compare two independent paths; it is also the
// baseline for the sweep benchmarks.
func RunSweepSequential(topo Topology, opt Options, simulate bool) []SweepPoint {
	points := make([]SweepPoint, len(topo.PEs))
	for i, p := range topo.PEs {
		points[i].PEs = p
	}
	for g := 0; g < opt.Graphs; g++ {
		rng := rand.New(rand.NewSource(opt.Seed + int64(g)))
		tg := topo.Build(rng, opt.Config)
		depth := schedule.StreamingDepth(tg) // shared by every SSLR below
		for i, p := range topo.PEs {
			pt := &points[i]

			for _, variant := range []schedule.Variant{schedule.SBLTS, schedule.SBRLX} {
				part, err := schedule.Algorithm1(tg, p, schedule.Options{Variant: variant})
				if err != nil {
					panic(err)
				}
				res, err := schedule.Schedule(tg, part, p)
				if err != nil {
					panic(err)
				}
				sp, sslr, util := res.Speedup(tg), res.Makespan/depth, res.Utilization(tg, p)
				var simErr float64
				if simulate {
					st, err := desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
					if err != nil {
						panic(err)
					}
					if st.Deadlocked {
						pt.Deadlocks++
					} else {
						simErr = st.RelativeError(res.Makespan)
					}
				}
				if variant == schedule.SBLTS {
					pt.SpeedupLTS = append(pt.SpeedupLTS, sp)
					pt.SSLRLTS = append(pt.SSLRLTS, sslr)
					pt.UtilLTS = append(pt.UtilLTS, util)
					if simulate {
						pt.ErrLTS = append(pt.ErrLTS, simErr*100)
					}
				} else {
					pt.SpeedupRLX = append(pt.SpeedupRLX, sp)
					pt.SSLRRLX = append(pt.SSLRRLX, sslr)
					pt.UtilRLX = append(pt.UtilRLX, util)
					if simulate {
						pt.ErrRLX = append(pt.ErrRLX, simErr*100)
					}
				}
			}

			nstr, err := baseline.Schedule(tg, p, baseline.Options{Insertion: true})
			if err != nil {
				panic(err)
			}
			pt.SpeedupNSTR = append(pt.SpeedupNSTR, nstr.Speedup(tg))
			pt.UtilNSTR = append(pt.UtilNSTR, nstr.Utilization(tg))
		}
	}
	return points
}

// Table2Row is one PE configuration of Table 2.
type Table2Row struct {
	PEs         int
	StrSpeedup  float64
	NstrSpeedup float64
	Gain        float64
}

// Table2Model evaluates one model graph across PE counts using the SB-LTS
// streaming heuristic against the buffered baseline. It is the sequential
// reference for the table2 cell jobs, independent of EvalContext.Evaluate.
func Table2Model(tg *core.TaskGraph, pes []int) []Table2Row {
	rows := make([]Table2Row, 0, len(pes))
	for _, p := range pes {
		part, err := schedule.PartitionLTS(tg, p)
		if err != nil {
			panic(err)
		}
		res, err := schedule.Schedule(tg, part, p)
		if err != nil {
			panic(err)
		}
		nstr, err := baseline.Schedule(tg, p, baseline.Options{Insertion: true})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Table2Row{
			PEs:         p,
			StrSpeedup:  res.Speedup(tg),
			NstrSpeedup: nstr.Speedup(tg),
			Gain:        nstr.Makespan / res.Makespan,
		})
	}
	return rows
}
