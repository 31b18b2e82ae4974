package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/results"
	"repro/internal/synth"
)

// TestFingerprintPinned pins results.Fingerprint for instance 0 (seed 1,
// the default volume config) of every workload, plus one hand-built graph
// whose names need JSON escaping and whose edges were added out of order.
// The hashes were recorded with the encoding/json encoder that
// core.EncodeJSON replaced. The report cache, shard artifacts and the
// results cache all key on these fingerprints, so none may move.
func TestFingerprintPinned(t *testing.T) {
	want := map[string]string{
		"synth:chain":       "40977c0fb6a38b1321f0cf12b743fea8",
		"synth:fft":         "9b7692cb539af2b36e67f09ed02dba08",
		"synth:gaussian":    "8fcb30ab1f5e134d80ef727eed66bf6e",
		"synth:cholesky":    "b25badc61c76d066cae0af85da8b2594",
		"synth:diamond":     "7a68cf059e1b565b9706c459a45755e7",
		"onnx:resnet":       "87a01784121ed5fdc5fb6e245f644e73",
		"onnx:encoder":      "a0e6724ed7b8946d5cc338ac05df04f0",
		"onnx:resnet-full":  "97b51697e79013b0c0bdd3db81b809f9",
		"onnx:encoder-full": "9519763a821ee0082f3cb87c0bd2b238",
		"onnx:vgg":          "11ed29d5e92366677f9fcf038fb058e0",
		"onnx:vgg-full":     "9530eff016ab53f074b355c77889e35a",
		"onnx:mlp":          "505ef286877b74ee1b62f40766d50e73",
		"onnx:mlp-deep":     "08e7f50e3f8907ee6ab58c4486f17fd4",
		"synth:chain-xl":    "c97fa428a1252e1ba515979c4023ee87",
		"synth:fft-xl":      "789e9352f6d9320e487696e7dcfe29f2",
		"synth:gaussian-xl": "28221f5882f7cacd13dc2ee1ab4d4492",
		"synth:cholesky-xl": "7cd793451556d1321788da7a0d23ce5d",
		"escaped-names":     "cd8aba92ffb45d272029270d037b6e34",
	}
	opt := Options{Graphs: 1, Seed: 1, Config: synth.DefaultConfig()}
	got := map[string]string{"escaped-names": results.Fingerprint(escapedNames(t))}
	for _, w := range workloadTable {
		tg, err := w.Build(opt, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		got[w.Name()] = results.Fingerprint(tg)
	}
	for name, fp := range got {
		if want[name] != fp {
			t.Errorf("%q: %q,  // want %q", name, fp, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d fingerprints, computed %d", len(want), len(got))
	}
}

// escapedNames is a small graph whose names exercise every escape the
// canonical encoding makes: quotes, backslashes, control bytes, HTML
// characters, U+2028/U+2029, non-ASCII runes and invalid UTF-8, most of
// them one to a name. Edges are added out of (from, to) order.
func escapedNames(t *testing.T) *core.TaskGraph {
	tg := core.New()
	v := []graph.NodeID{tg.AddSource("amp&", 4)}
	for _, name := range []string{"lt<", "gt>", `quote"`, `back\slash`, "ctl\x01\t\n", "del\x7f", ""} {
		v = append(v, tg.AddElementWise(name, 4))
	}
	v = append(v, tg.AddBuffer("é😀\u2028\u2029", 4, 8), tg.AddSink("bad\xffutf8", 8))
	for _, e := range [][2]int{{0, 5}, {0, 1}, {0, 3}, {0, 2}, {0, 6}, {0, 4}, {0, 7}, {6, 8}, {3, 8}, {7, 8}, {1, 8}, {2, 8}, {5, 8}, {4, 8}, {8, 9}} {
		tg.MustConnect(v[e[0]], v[e[1]])
	}
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	return tg
}
