package service

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/jsonscan"
)

// The /v1 codecs: the submit envelope and the job status, written and
// read by hand at both ends of the wire. Every byte they write is the
// byte encoding/json writes for the same value, and every value they read
// is the value encoding/json decodes from the same bytes, which is what
// the tests prove against encoding/json (FuzzSubmitEnvelopeVsReference,
// FuzzReportWriterVsMarshalIndent, FuzzClientCodecVsReference). One field
// table per struct, in the struct's field order, drives both directions.

// field is one JSON field of a struct T: its key, whether it is
// omitempty, and where its value lives.
type field[T any] struct {
	key  string
	omit bool
	at   func(*T) any
}

var submitFields = []field[SubmitRequest]{
	{"tenant", true, func(r *SubmitRequest) any { return &r.Tenant }},
	{"workload", true, func(r *SubmitRequest) any { return &r.Workload }},
	{"graph", true, func(r *SubmitRequest) any { return &r.Graph }},
	{"seed", true, func(r *SubmitRequest) any { return &r.Seed }},
	{"pes", true, func(r *SubmitRequest) any { return &r.PEs }},
	{"variant", true, func(r *SubmitRequest) any { return &r.Variant }},
	{"simulate", true, func(r *SubmitRequest) any { return &r.Simulate }},
}

var statusFields = []field[JobStatus]{
	{"id", false, func(s *JobStatus) any { return &s.ID }},
	{"state", false, func(s *JobStatus) any { return &s.State }},
	{"error", true, func(s *JobStatus) any { return &s.Error }},
	{"schedule", true, func(s *JobStatus) any { return &s.Schedule }},
}

var reportFields = []field[ScheduleReport]{
	{"nodes", false, func(r *ScheduleReport) any { return &r.Nodes }},
	{"compute_nodes", false, func(r *ScheduleReport) any { return &r.ComputeNodes }},
	{"edges", false, func(r *ScheduleReport) any { return &r.Edges }},
	{"pes", false, func(r *ScheduleReport) any { return &r.PEs }},
	{"variant", false, func(r *ScheduleReport) any { return &r.Variant }},
	{"blocks", false, func(r *ScheduleReport) any { return &r.Blocks }},
	{"makespan", false, func(r *ScheduleReport) any { return &r.Makespan }},
	{"sequential_time", false, func(r *ScheduleReport) any { return &r.SequentialTime }},
	{"speedup", false, func(r *ScheduleReport) any { return &r.Speedup }},
	{"sslr", false, func(r *ScheduleReport) any { return &r.SSLR }},
	{"utilization", false, func(r *ScheduleReport) any { return &r.Utilization }},
	{"streaming_edges", false, func(r *ScheduleReport) any { return &r.StreamingEdges }},
	{"cycle_edges", false, func(r *ScheduleReport) any { return &r.CycleEdges }},
	{"buffer_slots", false, func(r *ScheduleReport) any { return &r.BufferSlots }},
	{"block_of", false, func(r *ScheduleReport) any { return &r.BlockOf }},
	{"pe", false, func(r *ScheduleReport) any { return &r.PE }},
	{"st", false, func(r *ScheduleReport) any { return &r.ST }},
	{"fo", false, func(r *ScheduleReport) any { return &r.FO }},
	{"lo", false, func(r *ScheduleReport) any { return &r.LO }},
	{"sim", true, func(r *ScheduleReport) any { return &r.Sim }},
}

var simFields = []field[SimReport]{
	{"makespan", false, func(s *SimReport) any { return &s.Makespan }},
	{"relative_error", false, func(s *SimReport) any { return &s.RelativeError }},
	{"cycles", false, func(s *SimReport) any { return &s.Cycles }},
	{"deadlocked", true, func(s *SimReport) any { return &s.Deadlocked }},
	{"deadlock_cycle", true, func(s *SimReport) any { return &s.DeadlockCycle }},
}

// AppendSubmit appends req as json.Marshal writes it, the inline graph
// compacted in one pass. A graph that is not one JSON value is an error,
// as it is for json.Marshal.
func AppendSubmit(dst []byte, req SubmitRequest) ([]byte, error) {
	w := writer{buf: dst}
	err := writeObject(&w, &req, submitFields, 0)
	return w.buf, err
}

// AppendStatus appends st as json.MarshalIndent(st, "", "  ") writes it,
// and a newline: the body of a /v1/result answer. A NaN or infinite
// number is json.MarshalIndent's error.
func AppendStatus(dst []byte, st JobStatus) ([]byte, error) {
	if r := st.Schedule; r != nil { // about 16 bytes an indented number
		dst = slices.Grow(dst, 512+16*(len(r.BlockOf)+len(r.PE)+len(r.ST)+len(r.FO)+len(r.LO)))
	}
	w := writer{buf: dst, indent: true}
	err := writeObject(&w, &st, statusFields, 0)
	return append(w.buf, '\n'), err
}

// appendReport appends rep as json.Marshal writes it: the report cache's
// blob.
func appendReport(dst []byte, rep *ScheduleReport) ([]byte, error) {
	w := writer{buf: dst}
	err := writeObject(&w, rep, reportFields, 0)
	return w.buf, err
}

// writer appends JSON as json.Marshal writes it, or with indent as
// json.MarshalIndent with a two-space indent does.
type writer struct {
	buf    []byte
	indent bool
}

// newlines holds a newline and the deepest indentation written.
const newlines = "\n        "

// item starts item i of a container whose items sit at depth.
func (w *writer) item(i, depth int) {
	if i > 0 {
		w.buf = append(w.buf, ',')
	}
	if w.indent {
		w.buf = append(w.buf, newlines[:1+2*depth]...)
	}
}

// end closes a container of n items that sits at depth.
func (w *writer) end(n, depth int, closer byte) {
	if n > 0 && w.indent {
		w.buf = append(w.buf, newlines[:1+2*depth]...)
	}
	w.buf = append(w.buf, closer)
}

func writeObject[T any](w *writer, v *T, fields []field[T], depth int) error {
	if v == nil {
		w.buf = append(w.buf, "null"...)
		return nil
	}
	w.buf = append(w.buf, '{')
	n := 0
	for _, f := range fields {
		p := f.at(v)
		if f.omit && isEmpty(p) {
			continue
		}
		w.item(n, depth+1)
		n++
		w.buf = append(append(append(w.buf, '"'), f.key...), '"', ':')
		if w.indent {
			w.buf = append(w.buf, ' ')
		}
		if err := w.value(p, depth+1); err != nil {
			return err
		}
	}
	w.end(n, depth, '}')
	return nil
}

func writeList[E any](w *writer, xs []E, depth int, elem func(E) error) error {
	if xs == nil {
		w.buf = append(w.buf, "null"...)
		return nil
	}
	w.buf = append(w.buf, '[')
	for i, x := range xs {
		w.item(i, depth+1)
		if err := elem(x); err != nil {
			return err
		}
	}
	w.end(len(xs), depth, ']')
	return nil
}

// value writes the value p points at, which sits at depth.
func (w *writer) value(p any, depth int) (err error) {
	switch p := p.(type) {
	case *string:
		w.buf = jsonscan.AppendString(w.buf, *p)
	case *int:
		w.buf = strconv.AppendInt(w.buf, int64(*p), 10)
	case *int64:
		w.buf = strconv.AppendInt(w.buf, *p, 10)
	case *bool:
		w.buf = strconv.AppendBool(w.buf, *p)
	case *float64:
		w.buf, err = jsonscan.AppendFloat(w.buf, *p)
	case *[]int:
		return writeList(w, *p, depth, func(x int) error {
			w.buf = strconv.AppendInt(w.buf, int64(x), 10)
			return nil
		})
	case *[]float64:
		return writeList(w, *p, depth, func(x float64) (err error) {
			w.buf, err = jsonscan.AppendFloat(w.buf, x)
			return err
		})
	case *json.RawMessage:
		w.buf, err = jsonscan.AppendCompact(w.buf, *p)
	case **ScheduleReport:
		return writeObject(w, *p, reportFields, depth)
	case **SimReport:
		return writeObject(w, *p, simFields, depth)
	default:
		panic(fmt.Sprintf("service: no JSON codec for %T", p))
	}
	return err
}

// isEmpty reports whether omitempty leaves out the value p points at.
func isEmpty(p any) bool {
	v := reflect.ValueOf(p).Elem()
	return v.Kind() == reflect.Slice && v.Len() == 0 || v.IsZero()
}

// ReadSubmit decodes a /v1/submit body as json.Decoder decodes its first
// value into a SubmitRequest, in one pass that also decodes the inline
// graph where it stands. The request's Graph is a sub-slice of body; tg
// is the task graph decoded from it, nil when Graph is empty or no valid
// task graph (buildGraph says why). tg keeps no reference to body.
func ReadSubmit(body []byte) (req SubmitRequest, tg *core.TaskGraph, err error) {
	s := &jsonscan.Scanner{Data: body}
	if ok, err := s.Open('{', "a submission"); !ok {
		return req, nil, err
	}
	err = s.Object(func(key []byte) error {
		if !jsonscan.KeyIs(key, "graph") {
			return readField(s, &req, submitFields, key, 0)
		}
		s.Peek()
		start := s.Off
		var gerr error
		if tg, gerr = core.DecodeJSONAt(s, 1); gerr != nil {
			// Valid JSON but no task graph fails the submission, not
			// the body: rescan it for syntax alone.
			s.Off = start
			if err := s.Skip(1); err != nil {
				return err
			}
		}
		req.Graph = body[start:s.Off:s.Off]
		return nil
	})
	if err != nil {
		return req, nil, err
	}
	return req, tg, nil
}

// ReadStatus decodes a /v1/result body as json.Decoder decodes its first
// value into a JobStatus.
func ReadStatus(body []byte) (JobStatus, error) {
	var st JobStatus
	s := &jsonscan.Scanner{Data: body}
	if ok, err := s.Open('{', "a job status"); !ok {
		return st, err
	}
	return st, readObject(s, &st, statusFields, 0)
}

// readReport decodes a report cache blob as json.Unmarshal decodes it
// into a *ScheduleReport.
func readReport(blob []byte) (*ScheduleReport, error) {
	var rep *ScheduleReport
	s := &jsonscan.Scanner{Data: blob}
	if err := readPtr(s, &rep, reportFields, 0); err != nil {
		return nil, err
	}
	if s.Peek() != 0 || s.Off < len(blob) {
		return nil, s.SyntaxErr("after top-level value")
	}
	return rep, nil
}

func readObject[T any](s *jsonscan.Scanner, v *T, fields []field[T], depth int) error {
	return s.Object(func(key []byte) error { return readField(s, v, fields, key, depth) })
}

// readField decodes the value of key in an object of T at depth.
func readField[T any](s *jsonscan.Scanner, v *T, fields []field[T], key []byte, depth int) error {
	for _, f := range fields {
		if jsonscan.KeyIs(key, f.key) {
			return readValue(s, f.at(v), depth+1)
		}
	}
	return s.Skip(depth + 1)
}

// readPtr decodes an object into *p, allocating it if nil; null sets nil.
func readPtr[T any](s *jsonscan.Scanner, p **T, fields []field[T], depth int) error {
	if ok, err := s.Open('{', "an object"); !ok {
		if err == nil {
			*p = nil
		}
		return err
	}
	if *p == nil {
		*p = new(T)
	}
	return readObject(s, *p, fields, depth)
}

// readValue decodes into the value p points at, which sits at depth.
func readValue(s *jsonscan.Scanner, p any, depth int) (err error) {
	switch p := p.(type) {
	case *string:
		return s.String(p)
	case *int:
		return readInt(s, p)
	case *int64:
		return s.Int(p)
	case *bool:
		return s.Bool(p)
	case *float64:
		return s.Float(p)
	case *[]int:
		*p, err = jsonscan.List(s, *p, func(x *int) error { return readInt(s, x) })
	case *[]float64:
		*p, err = jsonscan.List(s, *p, s.Float)
	case **ScheduleReport:
		return readPtr(s, p, reportFields, depth)
	case **SimReport:
		return readPtr(s, p, simFields, depth)
	default:
		panic(fmt.Sprintf("service: no JSON codec for %T", p))
	}
	return err
}

func readInt(s *jsonscan.Scanner, p *int) error {
	v := int64(*p)
	if err := s.Int(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return s.TypeErr("an int")
	}
	*p = int(v)
	return nil
}
