// Mlpipeline: lower a transformer encoder layer to a canonical task graph
// and compare streaming against non-streaming scheduling across device
// sizes — the Table 2 experiment in miniature.
//
//	go run ./examples/mlpipeline           # tiny encoder, < 1 s
//	go run ./examples/mlpipeline -full     # base model (Vaswani et al.)
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/onnx"
	"repro/internal/schedule"
)

var full = flag.Bool("full", false, "use the base-model encoder layer (seq 128, d 512, 8 heads, ff 2048)")

func main() {
	flag.Parse()

	cfg := onnx.TinyEncoder()
	pes := []int{32, 64, 96, 128}
	if *full {
		cfg = onnx.BaseEncoder()
		pes = []int{256, 512, 768, 1024}
	}

	tg, err := onnx.TransformerEncoder(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var bufs int
	for _, n := range tg.Nodes {
		if n.Kind == core.Buffer {
			bufs++
		}
	}
	fmt.Printf("transformer encoder (seq %d, d %d, %d heads, ff %d)\n",
		cfg.SeqLen, cfg.Model, cfg.Heads, cfg.FF)
	fmt.Printf("canonical graph: %d nodes (%d buffer nodes), %d edges, T1 = %.0f\n\n",
		tg.Len(), bufs, tg.G.NumEdges(), tg.Work())

	fmt.Printf("%6s %12s %13s %6s %8s\n", "#PEs", "STR speedup", "NSTR speedup", "G", "SSLR")
	for _, p := range pes {
		part, err := schedule.PartitionLTS(tg, p)
		if err != nil {
			log.Fatal(err)
		}
		str, err := schedule.Schedule(tg, part, p)
		if err != nil {
			log.Fatal(err)
		}
		nstr, err := baseline.Schedule(tg, p, baseline.Options{Insertion: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %12.1f %13.1f %6.2f %8.2f\n",
			p, str.Speedup(tg), nstr.Speedup(tg), nstr.Makespan/str.Makespan, str.SSLR(tg))
	}
	fmt.Println("\nStreaming gains come from pipelining the attention softmax chains and")
	fmt.Println("the feed-forward matmul columns within spatial blocks (Section 7.3).")
}
