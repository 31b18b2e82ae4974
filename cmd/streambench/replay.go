package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
)

// replayInput is one distinct input of a workload, replayed solo through
// every layer function after the traced phase.
type replayInput struct {
	id       string
	tg       *core.TaskGraph
	data     []byte // its core JSON; encoded on demand when nil
	pes      int
	variant  schedule.Variant
	varName  string
	simulate bool // whether the workload's own requests simulate it
}

// simulateCap bounds the graphs the replay simulates. The discrete-event
// simulator takes under two seconds on the 10^5-node Gaussian and
// Cholesky graphs but about two minutes on the 2*10^5-node deep MLP.
const simulateCap = 150_000

// replayStats is what the solo replay measured.
type replayStats struct {
	ms       map[string][]float64 // call durations by span name
	bytes    int                  // core JSON decoded
	decodeMs float64              // time spent decoding it
	blocks   int
	cycles   int64
	leaped   int64
	evalMs   map[string]float64 // per input: its evaluation as the service runs it
}

// replayer runs inputs one at a time through core.DecodeJSON,
// results.Fingerprint, Partitioner.Partition, Scheduler.Schedule,
// buffers.Sizes, desim Scratch.Simulate, the report's JSON encode and a
// results.Cache put and get, one span per call, reusing one scratch of
// each kind as a sweep worker does.
type replayer struct {
	tr    *tracer
	cache *results.Cache
	part  *schedule.Partitioner
	sched *schedule.Scheduler
	sim   *desim.Scratch
	st    replayStats
}

func newReplayer(tr *tracer, cacheDir string) (*replayer, error) {
	cache, err := results.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	return &replayer{
		tr: tr, cache: cache,
		part: schedule.NewPartitioner(), sched: schedule.NewScheduler(), sim: desim.NewScratch(),
		st: replayStats{ms: make(map[string][]float64), evalMs: make(map[string]float64)},
	}, nil
}

func (rp *replayer) replay(in replayInput) error {
	st := &rp.st
	root := rp.tr.newID()
	call := func(name string, f func()) float64 {
		d := ms(rp.tr.timed(name, "replay", root, root, f))
		st.ms[name] = append(st.ms[name], d)
		return d
	}
	data := in.data
	if data == nil {
		var buf bytes.Buffer
		if err := in.tg.EncodeJSON(&buf); err != nil {
			return err
		}
		data = buf.Bytes()
	}
	var tg *core.TaskGraph
	var err error
	st.decodeMs += call("core.decode", func() { tg, err = core.DecodeJSON(bytes.NewReader(data)) })
	if err != nil {
		return fmt.Errorf("replay %s: %w", in.id, err)
	}
	st.bytes += len(data)
	var fp string
	call("results.fingerprint", func() { fp = results.Fingerprint(tg) })

	var p schedule.Partition
	var res *schedule.Result
	var sizes []buffers.EdgeSpace
	eval := call("schedule.partition", func() { p, err = rp.part.Partition(tg, in.pes, schedule.Options{Variant: in.variant}) })
	if err != nil {
		return fmt.Errorf("replay %s: %w", in.id, err)
	}
	eval += call("schedule.schedule", func() { res, err = rp.sched.Schedule(tg, p, in.pes) })
	if err != nil {
		return fmt.Errorf("replay %s: %w", in.id, err)
	}
	st.blocks += p.NumBlocks()
	eval += call("buffers.sizes", func() { sizes = buffers.Sizes(tg, res) })
	if tg.Len() <= simulateCap {
		var stats *desim.Stats
		d := call("desim.simulate", func() {
			stats, err = rp.sim.Simulate(tg, res, desim.Config{FIFOCap: buffers.SizeMap(tg, res)})
		})
		if err != nil {
			return fmt.Errorf("replay %s: %w", in.id, err)
		}
		st.cycles += stats.Cycles
		st.leaped += stats.Leap.LeapedCycles
		if in.simulate {
			eval += d
		}
	}
	rep := &service.ScheduleReport{
		Nodes: tg.Len(), ComputeNodes: tg.NumComputeNodes(), Edges: tg.G.NumEdges(),
		PEs: in.pes, Variant: in.varName, Blocks: p.NumBlocks(), Makespan: res.Makespan,
		SequentialTime: schedule.SequentialTime(tg), Speedup: res.Speedup(tg),
		SSLR: res.SSLR(tg), Utilization: res.Utilization(tg, in.pes),
		BlockOf: res.Partition.BlockOf, PE: res.PE, ST: res.ST, FO: res.FO, LO: res.LO,
		StreamingEdges: len(sizes),
	}
	for _, e := range sizes {
		if e.OnCycle {
			rep.CycleEdges++
			rep.BufferSlots += e.Space
		}
	}
	var blob []byte
	eval += call("service.report_encode", func() { blob, err = json.Marshal(rep) })
	if err != nil {
		return err
	}
	st.evalMs[in.id] = eval
	key := results.CellKey{Graph: fp, PEs: in.pes, Variant: in.varName, Simulate: in.simulate}
	call("results.cache_put", func() { err = rp.cache.PutBlob("streambench", key, blob) })
	if err != nil {
		return err
	}
	var ok bool
	call("results.cache_get", func() { _, ok = rp.cache.GetBlob("streambench", key) })
	if !ok {
		return fmt.Errorf("replay %s: the cache lost the blob it just stored", in.id)
	}
	return nil
}

// layers turns the replay into its per-layer metrics.
func (st replayStats) layers(m map[string]float64) {
	med := func(name string) float64 { return percentile(st.ms[name], 0.5) }
	max := func(name string) float64 { return percentile(st.ms[name], 1) }
	m["core.decode_ms"] = med("core.decode")
	m["core.decode_mb_per_s"] = ratio(float64(st.bytes)/1e6, st.decodeMs/1e3)
	m["results.fingerprint_ms"] = med("results.fingerprint")
	m["results.cache_put_ms"] = med("results.cache_put")
	m["results.cache_get_ms"] = med("results.cache_get")
	m["schedule.partition_ms"] = med("schedule.partition")
	m["schedule.partition_max_ms"] = max("schedule.partition")
	m["schedule.schedule_ms"] = med("schedule.schedule")
	m["schedule.schedule_max_ms"] = max("schedule.schedule")
	m["schedule.blocks"] = float64(st.blocks)
	m["buffers.sizes_ms"] = med("buffers.sizes")
	m["buffers.sizes_max_ms"] = max("buffers.sizes")
	m["desim.simulate_ms"] = med("desim.simulate")
	m["desim.cycles"] = float64(st.cycles)
	m["desim.leap_share"] = ratio(float64(st.leaped), float64(st.cycles))
	m["service.report_encode_ms"] = med("service.report_encode")
}
