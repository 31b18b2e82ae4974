package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFieldTablesMatchStructs pins each codec field table to its struct:
// one entry per field, in field order, with the field's JSON key and
// omitempty, and pointing at that field. A field added to a struct and
// not to its table fails here.
func TestFieldTablesMatchStructs(t *testing.T) {
	checkTable(t, submitFields)
	checkTable(t, statusFields)
	checkTable(t, reportFields)
	checkTable(t, simFields)
}

func checkTable[T any](t *testing.T, fields []field[T]) {
	t.Helper()
	v := new(T)
	rv := reflect.ValueOf(v).Elem()
	if rv.NumField() != len(fields) {
		t.Fatalf("%T: %d fields, table has %d", *v, rv.NumField(), len(fields))
	}
	for i, f := range fields {
		sf := rv.Type().Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name != f.key || (opts == "omitempty") != f.omit {
			t.Errorf("%T.%s: tag %q, table has key %q omit %v", *v, sf.Name, sf.Tag.Get("json"), f.key, f.omit)
		}
		if p := reflect.ValueOf(f.at(v)); p.Pointer() != rv.Field(i).Addr().Pointer() || p.Type().Elem() != sf.Type {
			t.Errorf("%T: table entry %d does not point at field %s", *v, i, sf.Name)
		}
	}
}

const tinyGraph = `{"nodes":[{"name":"in","kind":"source","out":4},{"kind":"compute","in":4,"out":4},{"kind":"sink","in":4}],"edges":[[0,1],[1,2]]}`

// submitSeeds exercise the envelope quirks ReadSubmit must share with
// encoding/json.
var submitSeeds = []string{
	`{"tenant":"a","graph":` + tinyGraph + `,"pes":8,"variant":"rlx","simulate":true,"seed":3}`,
	`{"workload":"synth:fft","seed":7,"pes":16}`,
	"{\n  \"graph\": {\n    \"nodes\": [\n      {\n        \"name\": \"n\\u00e9<&>\",\n        \"kind\": \"source\",\n        \"out\": 4\n      },\n      {\n        \"kind\": \"sink\",\n        \"in\": 4\n      }\n    ],\n    \"edges\": [\n      [\n        0,\n        1\n      ]\n    ]\n  }\n}\n",
	// Duplicate keys: the last value wins; a repeated graph replaces the
	// first whether or not that one was a task graph.
	`{"graph":{"nodes":[]},"graph":` + tinyGraph + `}`,
	`{"graph":{"nodes":[{"kind":"wizard"}]},"graph":` + tinyGraph + `}`,
	`{"graph":` + tinyGraph + `,"graph":{"nodes":5}}`,
	`{"pes":4,"pes":8,"tenant":"a","tenant":null,"simulate":true,"simulate":false}`,
	// Folded keys.
	`{"GRAPH":` + tinyGraph + `,"Pes":8,"VARIANT":"rlx","SimuLate":true,"TENANT":"b"}`,
	`{"\u0067raph":` + tinyGraph + `,"\u212a":1,"ſeed":4}`,
	// null.
	`{"graph":null}`,
	`{"graph":null,"workload":"synth:fft"}`,
	`{"tenant":null,"workload":null,"seed":null,"pes":null,"variant":null,"simulate":null}`,
	`null`,
	`null {"pes":4}`,
	// Unknown keys, nested, and a graph's own unknown keys.
	`{"x":{"graph":{"nodes":5}},"meta":[1,{"a":null},"s",true,false,-1.5e3],"graph":{"nodes":[],"extra":{"deep":[[]]}}}`,
	`{"x":[1,}],"workload":"synth:fft"}`,
	// Bytes after the object.
	`{"workload":"synth:fft"} trailing`,
	`{"workload":"synth:fft"}}}`,
	// Graphs that are JSON but no task graph.
	`{"graph":{"nodes":5}}`,
	`{"graph":"str"}`,
	`{"graph":[1,2]}`,
	`{"graph":{"nodes":[{"kind":"source","out":4}],"edges":[[0,7]]}}`,
	// Broken bodies and type mismatches.
	`{"graph":{"nodes":[}`,
	`{"graph"}`,
	`{"graph":}`,
	``,
	`   `,
	`[]`,
	`"s"`,
	`{"pes":1.5}`,
	`{"pes":"8"}`,
	`{"seed":9223372036854775808}`,
	`{"seed":-9223372036854775808}`,
	`{"simulate":1}`,
	`{"tenant":5}`,
	// Strings as encoding/json unquotes them.
	`{"tenant":"a\u00e9\ud800\"\\\/","variant":"l\tts"}`,
	"{\"tenant\":\"bad\xff\xfe\",\"workload\":\"synth:fft\"}",
	"{\"tenant\":\"ctl\x01\"}",
}

// checkSubmitAgainstReference decodes body with ReadSubmit and with the
// encoding/json decoder the handler used before, and fails unless both
// reject it or both decode the same request, and unless ReadSubmit's graph
// is the graph buildGraph makes of that request's Graph, holding nothing
// of body.
func checkSubmitAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	body = bytes.Clone(body)
	got, tg, err := ReadSubmit(body)
	var want SubmitRequest
	refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("envelope decoders disagree on %q:\n  ReadSubmit:   %v\n  encoding/json: %v", body, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("envelopes differ on %q:\n  ReadSubmit:    %+v\n  encoding/json: %+v", body, got, want)
	}
	if len(want.Graph) == 0 {
		if tg != nil {
			t.Fatalf("graph decoded from a request without one: %q", body)
		}
		return
	}
	wantTG, wantErr := core.DecodeJSON(bytes.NewReader(want.Graph))
	if (tg != nil) != (wantErr == nil) {
		t.Fatalf("graph decoders disagree on %q: ReadSubmit decoded %v, DecodeJSON says %v", body, tg != nil, wantErr)
	}
	if tg == nil {
		return
	}
	var gotDoc, wantDoc bytes.Buffer
	if err := tg.EncodeJSON(&gotDoc); err != nil {
		t.Fatal(err)
	}
	for i := range body { // the graph must not alias the body
		body[i] = 'x'
	}
	if err := wantTG.EncodeJSON(&wantDoc); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := tg.EncodeJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDoc.Bytes(), wantDoc.Bytes()) || !bytes.Equal(again.Bytes(), gotDoc.Bytes()) {
		t.Fatalf("graphs differ:\n%s\n%s\n%s", gotDoc.Bytes(), wantDoc.Bytes(), again.Bytes())
	}
}

func TestSubmitEnvelopeMatchesReference(t *testing.T) {
	nested := func(k int) string { // a graph's unknown key nesting k arrays
		return `{"graph":{"x":` + strings.Repeat("[", k) + strings.Repeat("]", k) + `}}`
	}
	for _, in := range append(submitSeeds[:len(submitSeeds):len(submitSeeds)], nested(9998), nested(9999)) {
		checkSubmitAgainstReference(t, []byte(in))
	}
}

// FuzzSubmitEnvelopeVsReference checks the hand-written /v1/submit
// envelope decoder against encoding/json on arbitrary bodies.
func FuzzSubmitEnvelopeVsReference(f *testing.F) {
	for _, in := range submitSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(checkSubmitAgainstReference)
}

// special are floats at the edges of encoding/json's float rule.
var special = []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-300, 1e20, 1e21, -1e21, 123456789e15, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}

// fuzzStatus builds a job status from fuzz input: report floats from raw
// bits (NaN and the infinities included), slices nil, empty or filled
// from special, and the simulation present or absent.
func fuzzStatus(id, msg string, n uint8, seed int64, bits uint64, flags uint8) JobStatus {
	st := JobStatus{ID: id, State: StateDone, Error: msg}
	if flags&1 == 0 {
		return st
	}
	rng := rand.New(rand.NewSource(seed))
	x := math.Float64frombits(bits)
	ints := func() []int {
		if flags&2 != 0 {
			return nil
		}
		s := make([]int, int(n)%7)
		for i := range s {
			s[i] = rng.Intn(1<<20) - 1<<19
		}
		return s
	}
	floats := func() []float64 {
		if flags&2 != 0 {
			return nil
		}
		s := make([]float64, int(n)%7)
		for i := range s {
			s[i] = special[rng.Intn(len(special))] * float64(rng.Intn(3)+1)
		}
		return s
	}
	st.Schedule = &ScheduleReport{
		Nodes: int(n), ComputeNodes: rng.Intn(100), Edges: -rng.Intn(100), PEs: 8, Variant: msg,
		Blocks: int(seed), Makespan: x, SequentialTime: special[int(n)%len(special)],
		Speedup: x * 1e-7, SSLR: x * 1e21, Utilization: -x,
		StreamingEdges: 1, CycleEdges: 0, BufferSlots: seed,
		BlockOf: ints(), PE: ints(), ST: floats(), FO: floats(), LO: floats(),
	}
	if flags&4 != 0 {
		st.Schedule.Sim = &SimReport{Makespan: x, RelativeError: special[int(seed&15)], Cycles: seed, Deadlocked: flags&8 != 0}
		if flags&16 != 0 {
			st.Schedule.Sim.DeadlockCycle = seed
		}
	}
	return st
}

// checkStatusWriter fails unless AppendStatus writes what
// json.MarshalIndent writes, and the cache blob writer what json.Marshal
// writes, or both fail with the same error.
func checkStatusWriter(t *testing.T, st JobStatus) {
	t.Helper()
	want, wantErr := json.MarshalIndent(st, "", "  ")
	got, err := AppendStatus(nil, st)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("writers disagree: AppendStatus %v, json.MarshalIndent %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("AppendStatus:\n%s\njson.MarshalIndent:\n%s", got, want)
	}
	if st.Schedule == nil {
		return
	}
	want, wantErr = json.Marshal(st.Schedule)
	got, err = appendReport(nil, st.Schedule)
	if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendReport %v:\n%s\njson.Marshal %v:\n%s", err, got, wantErr, want)
	}
}

func FuzzReportWriterVsMarshalIndent(f *testing.F) {
	f.Add("j1", "", uint8(5), int64(1), math.Float64bits(1234.5), uint8(0xff))
	f.Add("j2", "<&>\u2028", uint8(3), int64(2), math.Float64bits(math.NaN()), uint8(5))
	f.Add("j3", "x", uint8(4), int64(3), math.Float64bits(math.Inf(1)), uint8(1))
	f.Add("j4", "x", uint8(4), int64(4), math.Float64bits(math.Inf(-1)), uint8(1))
	f.Add("j5", "bad\xff", uint8(2), int64(5), math.Float64bits(1e-7), uint8(3))
	f.Add("j6", "", uint8(6), int64(6), math.Float64bits(1e21), uint8(0x1d))
	f.Add("j7", "", uint8(0), int64(7), math.Float64bits(math.Copysign(0, -1)), uint8(1))
	f.Add("j8", "failed", uint8(0), int64(8), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, id, msg string, n uint8, seed int64, bits uint64, flags uint8) {
		checkStatusWriter(t, fuzzStatus(id, msg, n, seed, bits, flags))
	})
}

// TestReportWriterEdgeCases covers the writer's documented cases.
func TestReportWriterEdgeCases(t *testing.T) {
	for i, x := range append(special, math.NaN(), math.Inf(1), math.Inf(-1)) {
		for flags := uint8(0); flags < 32; flags++ {
			checkStatusWriter(t, fuzzStatus("j", "m", uint8(i), int64(i), math.Float64bits(x), flags))
		}
	}
	checkStatusWriter(t, JobStatus{ID: "j", State: StateDone, Schedule: &ScheduleReport{
		BlockOf: []int{}, PE: []int{}, ST: []float64{}, FO: []float64{}, LO: []float64{}, Sim: &SimReport{},
	}})
}

// statusSeeds are job status bodies for the client's reader.
var statusSeeds = []string{
	`{"id":"j1","state":"done","schedule":{"nodes":2,"pes":8,"variant":"lts","makespan":1.5,"block_of":[0,0],"pe":[0,-1],"st":[0,1e-7],"fo":[1,2],"lo":[-0,3],"sim":{"makespan":2,"relative_error":0.25,"cycles":9,"deadlocked":true}}}`,
	`{"id":"j2","state":"failed","error":"boom"}`,
	`{"ID":"j3","STATE":"done","Schedule":{"ST":[1,2,3],"st":[4],"st":null,"Sim":null},"schedule":{"fo":[]}}`,
	`{"id":"j4","schedule":null,"schedule":{"nodes":1},"schedule":{"pes":2}}`,
	`{"id":"j5","unknown":{"a":[1,{"b":null}]},"schedule":{"extra":[[]],"st":[1.5,null,2]}}`,
	`{"schedule":{"makespan":1e400}}`,
	`{"schedule":{"nodes":1.0}}`,
	`{"schedule":{"nodes":9223372036854775808}}`,
	`{"schedule":{"st":["1"]}}`,
	`{"schedule":{"sim":{"deadlocked":1}}}`,
	`{"schedule":[]}`,
	`{"id":5}`,
	`null`,
	`[]`,
	``,
	`{"id":"j"} {"garbage"`,
	`{"id":"j"`,
	`{"id":"a\u00e9\ud800","state":"bad\xff"}`,
}

// checkClientCodec fails unless AppendSubmit writes what json.Marshal
// writes for req, and ReadStatus and readReport read from body what
// encoding/json reads, float bits included (or all reject).
func checkClientCodec(t *testing.T, req SubmitRequest, body []byte) {
	t.Helper()
	want, wantErr := json.Marshal(req)
	got, err := AppendSubmit(nil, req)
	if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
		t.Fatalf("AppendSubmit %v:\n%s\njson.Marshal %v:\n%s", err, got, wantErr, want)
	}

	st, err := ReadStatus(body)
	var wantSt JobStatus
	refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&wantSt)
	sameRead(t, "ReadStatus", body, st, wantSt, err, refErr)
	rep, err := readReport(body)
	var wantRep *ScheduleReport
	refErr = json.Unmarshal(body, &wantRep)
	sameRead(t, "readReport", body, rep, wantRep, err, refErr)
}

func sameRead(t *testing.T, name string, body []byte, got, want any, err, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s and encoding/json disagree on %q: %v / %v", name, body, err, refErr)
	}
	if err != nil {
		return
	}
	// Marshalling tells -0 from 0, which DeepEqual does not.
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(a, b) {
		t.Fatalf("%s on %q:\n%s\nencoding/json:\n%s", name, body, a, b)
	}
}

func FuzzClientCodecVsReference(f *testing.F) {
	rep, _ := AppendStatus(nil, fuzzStatus("j9", "", 5, 9, math.Float64bits(0.5), 0x1f))
	for i, body := range append(statusSeeds, string(rep)) {
		f.Add("t", "", []byte(tinyGraph), int64(i), 8, "lts", i%2 == 0, []byte(body))
	}
	f.Add("<t&>\u2028", "synth:fft", []byte(nil), int64(-1), -4, "", false, []byte(`{}`))
	f.Add("", "", []byte("  {\n \"nodes\" : [ ], \"name\": \"a<b\u2029\" }\n "), int64(0), 0, "", true, []byte(`{}`))
	f.Add("", "", []byte(`{"a":1} {"b":2}`), int64(0), 0, "", false, []byte(`{}`))
	f.Add("", "", []byte(`   `), int64(0), 0, "", false, []byte(`{}`))
	f.Add("bad\xff", "", []byte("\"\xff\xfe\\u00e9\""), int64(0), 0, "", false, []byte(`{}`))
	f.Add("", "", []byte(`{"a":[1,}`), int64(0), 0, "", false, []byte(`{}`))
	f.Fuzz(func(t *testing.T, tenant, workload string, graph []byte, seed int64, pes int, variant string, sim bool, body []byte) {
		checkClientCodec(t, SubmitRequest{Tenant: tenant, Workload: workload, Graph: graph, Seed: seed, PEs: pes, Variant: variant, Simulate: sim}, body)
	})
}

func TestClientCodecMatchesReference(t *testing.T) {
	for i, body := range statusSeeds {
		checkClientCodec(t, SubmitRequest{Tenant: "t", Graph: []byte(tinyGraph), Seed: int64(i), PEs: i}, []byte(body))
	}
}

// TestResultNaNAnswers500: a report number encoding/json cannot write is
// answered as WriteJSON answered it, a 500 with MarshalIndent's error.
func TestResultNaNAnswers500(t *testing.T) {
	s := New(Options{})
	j := &job{id: "j1", state: StateDone, done: make(chan struct{}), report: &ScheduleReport{Makespan: math.NaN()}}
	s.jobs[j.id] = j
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/result/j1", nil))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != "{\n  \"error\": \"json: unsupported value: NaN\"\n}\n" {
		t.Fatalf("%d %q", rec.Code, rec.Body.String())
	}
}

// TestResolvedJobReleasesGraph: once a job resolves, done (as a leader or
// a coalesced follower) or shed, it holds no task graph, and Result
// still serves its report.
func TestResolvedJobReleasesGraph(t *testing.T) {
	s := New(Options{QueueCap: 3, Workers: 1, ShedPolicy: ShedLargestGraphFirst})
	big, err := s.Submit(SubmitRequest{Workload: "synth:cholesky", Seed: 1, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ { // a leader and a follower, then the newcomer that sheds big
		resp, err := s.Submit(SubmitRequest{Workload: "synth:chain", Seed: int64(1 + i/2), PEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Shed != 1 || st.Coalesced != 1 || st.Completed != 3 {
		t.Fatalf("statusz %+v, want one shed, one coalesced, three completed", st)
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		if j.tg != nil {
			t.Errorf("resolved job %s (%s) still holds its graph", id, j.state)
		}
	}
	s.mu.Unlock()
	if st, _ := s.Result(big.ID); st.State != StateShed {
		t.Errorf("big job %+v, want shed", st)
	}
	for _, id := range ids {
		if st, err := s.Result(id); err != nil || st.State != StateDone || st.Schedule == nil || st.Schedule.Nodes == 0 {
			t.Errorf("job %s: %+v %v, want its report", id, st, err)
		}
	}
}
