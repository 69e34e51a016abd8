package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the benchmark's own tracing. The program's spans stay
// untouched; the recorder wraps each layer's public entry point
// (Router.Handler, Server.Handler) and the direct in-process lanes,
// keeps the spans in memory, and writes them out when the run ends.
// Spans of one request share its X-Request-Id, which the router
// forwards to the replica, so the client, router and replica spans of a
// request join without any change to the program.

// Span names, one per layer boundary the benchmark can see.
const (
	layerClient   = "client.request"
	layerFront    = "front.handler"
	layerServe    = "serve.handler"
	layerCore     = "core.direct"
	layerMCJob    = "mcjob.direct"
	maxSpansKept  = 1 << 21
	spanDumpLimit = 1 << 16
)

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's epoch. Parent is filled in by link.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root
	Trace     string `json:"trace"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Replica   int    `json:"replica,omitempty"` // serve.handler: replica index + 1
	Status    int    `json:"status,omitempty"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder collects spans while on. A nil *recorder records nothing and
// wraps nothing: that is the untraced configuration.
type recorder struct {
	on      atomic.Bool
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// active reports whether spans are being recorded.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpansKept {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// record adds a span over [start, now) when the recorder is active.
func (r *recorder) record(name, trace string, start int64) {
	if r.active() {
		r.add(span{Name: name, Trace: trace, Start: start, End: r.now()})
	}
}

// reset drops every recorded span (the untraced window of a traced run
// leaves none, but warm-ups may).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// wrap times h as the given layer. replica is the replica index for
// serve.handler spans, -1 otherwise.
func (r *recorder) wrap(layer string, replica int, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := r.now()
		h.ServeHTTP(cw, req)
		status := cw.status
		if status == 0 {
			status = http.StatusOK
		}
		r.add(span{
			Name: layer, Trace: req.Header.Get("X-Request-Id"),
			Start: start, End: r.now(), Replica: replica + 1,
			Status: status, ReqBytes: max(req.ContentLength, 0), RespBytes: cw.bytes,
		})
	})
}

// countingWriter records the status and body size of a response. It
// passes Flush through so streamed NDJSON keeps flowing.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(b)
	c.bytes += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// layerParent names the layer a span's parent belongs to.
var layerParent = map[string]string{
	layerFront: layerClient,
	layerServe: layerFront,
}

// link assigns ids and parents: within one trace, each front.handler
// span is the child of the client.request span and each serve.handler
// span the child of the front.handler span whose interval contains it.
// It returns the spans sorted by start time.
func link(spans []span) []span {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byTrace := map[string][]int{}
	for i := range spans {
		spans[i].ID = i
		spans[i].Parent = -1
		if spans[i].Trace != "" {
			byTrace[spans[i].Trace] = append(byTrace[spans[i].Trace], i)
		}
	}
	for _, idx := range byTrace {
		for _, c := range idx {
			want, ok := layerParent[spans[c].Name]
			if !ok {
				continue
			}
			for _, p := range idx {
				if spans[p].Name == want && spans[p].Start <= spans[c].Start && spans[c].End <= spans[p].End {
					spans[c].Parent = p
					break
				}
			}
		}
	}
	return spans
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, in milliseconds, indexed like spans.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		cur := s.Start // children are sorted by start (spans are)
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, cur), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name              string
	spans             int
	selfP50, selfMean float64
	selfTotal         float64
}

// selfTable summarizes self time per layer, in the order layers appear.
func selfTable(spans []span, self []float64) []layerRow {
	byName := map[string][]float64{}
	var order []string
	for i, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], self[i])
	}
	sort.Strings(order)
	var rows []layerRow
	for _, name := range order {
		v := byName[name]
		sort.Float64s(v)
		row := layerRow{name: name, spans: len(v), selfP50: v[len(v)/2]}
		for _, x := range v {
			row.selfTotal += x
		}
		row.selfMean = row.selfTotal / float64(len(v))
		rows = append(rows, row)
	}
	return rows
}

func writeSelfTable(w io.Writer, rows []layerRow) {
	var total float64
	for _, r := range rows {
		total += r.selfTotal
	}
	fmt.Fprintf(w, "%-16s %9s %12s %12s %10s\n", "layer", "spans", "self_p50_ms", "self_mean_ms", "self_share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9d %12.4f %12.4f %9.1f%%\n", r.name, r.spans, r.selfP50, r.selfMean, 100*r.selfTotal/total)
	}
}

// dumpSpans writes the first spanDumpLimit spans as NDJSON with their
// self time.
func dumpSpans(path string, spans []span, self []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		span
		SelfMS float64 `json:"self_ms"`
	}
	for i := range spans {
		if i == spanDumpLimit {
			break
		}
		if err := enc.Encode(line{span: spans[i], SelfMS: self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
