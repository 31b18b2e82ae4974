package jsonscan

import (
	"encoding/json"
	"math"
	"testing"
)

// The codecs built on this package are proved against encoding/json by
// the differential fuzz targets of internal/core and internal/service;
// these tests pin the writing half's own edge cases.

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-300, 1e20, 1e21, -1e21,
		123456789e15, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want, wantErr := json.Marshal(x)
		got, err := AppendFloat([]byte("x"), x)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%v: error %v, json.Marshal %v", x, err, wantErr)
		} else if err == nil && string(got) != "x"+string(want) {
			t.Errorf("%v: %s, json.Marshal %s", x, got[1:], want)
		}
	}
}

func TestAppendCompactMatchesMarshal(t *testing.T) {
	for _, in := range []string{
		" {\n  \"a\" : [ 1 , -2.5e3 , true , null ],\n  \"b<&>\": \"x y <&> \\u003c \\\" \"\n}\t\r\n",
		`"s"`, `[]`, `{}`, `0`, "\xff\"\xff\"",
		``, `  `, `{"a":1} {"b":2}`, `{"a":1}]`, "{}\x00", `[1,]`, `{"a"}`, "\"\x01\"", `01`,
		"\"\u2028 \xe2\x80\xa8\xe2\x80\xa9 \xe2\x80\\\"", `"\\"<\\\\>"`,
	} {
		want, wantErr := json.Marshal(json.RawMessage(in))
		got, err := AppendCompact(nil, []byte(in))
		if (err == nil) != (wantErr == nil) || err == nil && string(got) != string(want) {
			t.Errorf("%q: %q %v, json.Marshal %q %v", in, got, err, want, wantErr)
		}
	}
}

func TestKeyIs(t *testing.T) {
	for _, c := range []struct {
		raw, name string
		want      bool
	}{
		{"graph", "graph", true}, {"GRAPH", "graph", true}, {"Graph", "graph", true}, {`gr\u0061ph`, "graph", true},
		{"graphs", "graph", false}, {"grap", "graph", false}, {"", "graph", false},
		{"ſeed", "seed", true}, {"Kind", "kind", true}, {"block_of", "block_of", true}, {"BLOCK_OF", "block_of", true},
		{"blockof", "block_of", false}, {"pe", "pes", false}, {"İn", "in", false},
	} {
		if got := KeyIs([]byte(c.raw), c.name); got != c.want {
			t.Errorf("KeyIs(%q, %q) = %v, want %v", c.raw, c.name, got, c.want)
		}
	}
}
