package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/maskcost"
	"repro/internal/mcjob"
	"repro/internal/memo"
	"repro/internal/parallel"
)

// This file computes the per-layer metrics of a traced run. Every number
// is taken from outside the program: the recorder's spans around each
// layer's handler, direct in-process lanes, and counters the program
// already exports (memo.Stats, the parallel chunk histograms, each
// server's /metrics and the job event timeline).

// serveStages are the nanocostd_span_seconds stages read from each
// replica. serve.request is in the result line; the others, which some
// workloads never reach, are printed in the table where they ran.
var serveStages = []string{"serve.request", "serve.batch", "core.batch", "parallel.chunks", "memo.fill", "mcjob.run"}

// counters is a snapshot of the program's exported counters.
type counters struct {
	figures           memo.CacheStats
	chunks, waitCount uint64
	waitSum, execSum  float64
	router            string
	replicas          []string
}

func snapshot(c *http.Client, t *tier) (counters, error) {
	var s counters
	for _, st := range memo.Stats() {
		if st.Name == "serve.figures" {
			s.figures = st
		}
	}
	wait, exec := parallel.ChunkWaitSeconds(), parallel.ChunkExecSeconds()
	s.waitCount, s.waitSum = wait.Count(), wait.Mean()*float64(wait.Count())
	s.chunks, s.execSum = exec.Count(), exec.Mean()*float64(exec.Count())
	var err error
	s.router, s.replicas, err = t.scrapeAll(c)
	return s, err
}

// replicaSum sums a series over every replica's exposition.
func (s counters) replicaSum(name, label string) float64 {
	var v float64
	for _, r := range s.replicas {
		v += promSum(r, name, label)
	}
	return v
}

// layerMetric is one per-layer number with the base it was computed
// from, for the printed table.
type layerMetric struct {
	name  string
	value float64
	unit  string
	base  string
}

// layers holds a traced run's windows and the metrics derived from them:
// metrics are measured on every workload and make up the result line;
// notes are the numbers of layers only some workloads reach, printed in
// the table of the runs that reach them.
type layers struct {
	w, untraced   *window
	before, after counters
	metrics       []layerMetric
	notes         []layerMetric
}

func (l *layers) add(name string, v float64, unit, base string) {
	l.metrics = append(l.metrics, layerMetric{name: name, value: v, unit: unit, base: base})
}

func (l *layers) note(name string, v float64, unit, base string) {
	l.notes = append(l.notes, layerMetric{name: name, value: v, unit: unit, base: base})
}

// ratio returns a/b, or 0 when b is 0 (a metric with no base events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedWindow warms up, then measures one window with the recorder on,
// snapshotting the program's counters on both sides.
func (b *bench) tracedWindow(t *tier) (*layers, error) {
	b.warm(t)
	l := &layers{}
	var err error
	if l.before, err = snapshot(b.client, t); err != nil {
		return nil, err
	}
	b.rec.reset()
	b.rec.on.Store(true)
	l.w, err = measure(func(w *window) error {
		b.timed(t, w, time.Duration(b.cfg.seconds)*time.Second)
		return nil
	})
	b.rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	if l.after, err = snapshot(b.client, t); err != nil {
		return nil, err
	}
	return l, nil
}

// finish runs the direct lanes, derives the per-layer metrics, prints
// the self-time table, the metrics and notes, and dumps the spans.
func (l *layers) finish(b *bench, t *tier, direct map[uint64]time.Duration, out io.Writer) error {
	wl := b.cfg.workload
	coreMS, err := b.coreDirect()
	if err != nil {
		return err
	}
	// On job the direct lane is the oracle's runs of this window's jobs.
	windowDirect := map[uint64]time.Duration{}
	for _, jr := range l.w.jobs {
		if d, ok := direct[jr.index]; ok {
			windowDirect[jr.index] = d
		}
	}
	mcjobMS, mcjobRuns, err := b.mcjobDirect(windowDirect)
	if err != nil {
		return err
	}
	var events []jobTimeline
	if wl == wlJob {
		if events, err = b.jobEvents(t, l.w.jobs); err != nil {
			return err
		}
	}

	spans := link(b.rec.spans)
	self := selfTimes(spans)
	var (
		frontSelf, serveMS  []float64
		perReplica          = make([]int, replicaCount)
		rejected            int
		reqBytes, respBytes int64
	)
	for i, s := range spans {
		switch s.Name {
		case layerFront:
			if hasChild(spans, i) {
				frontSelf = append(frontSelf, self[i])
			}
		case layerServe:
			serveMS = append(serveMS, s.ms())
			perReplica[s.Replica-1]++
			if s.Status == http.StatusTooManyRequests {
				rejected++
			}
			reqBytes += s.ReqBytes
			respBytes += s.RespBytes
		}
	}
	if len(frontSelf) == 0 || len(serveMS) == 0 {
		return fmt.Errorf("traced window recorded no router or replica spans")
	}
	sort.Float64s(frontSelf)
	sort.Float64s(serveMS)
	ops := float64(l.w.ops)
	delta := func(name, label string) float64 {
		return l.after.replicaSum(name, label) - l.before.replicaSum(name, label)
	}

	// front
	base := fmt.Sprintf("router handler − replica handler, %d requests", len(frontSelf))
	l.add("front.self_ms_p50", median(frontSelf), "ms", base)
	l.add("front.self_ms_mean", mean(frontSelf), "ms", base)
	if p99, err := percentile(frontSelf, 0.99); err == nil {
		l.note("front.self_ms_p99", p99, "ms", base)
	}
	busiest := 0
	for _, n := range perReplica {
		busiest = max(busiest, n)
	}
	l.add("front.replica_skew", ratio(float64(busiest), float64(len(serveMS)))/0.5, "ratio",
		fmt.Sprintf("busiest replica %d of %d requests, ÷ 0.5", busiest, len(serveMS)))
	retries := promSum(l.after.router, "front_retries_total", "") - promSum(l.before.router, "front_retries_total", "")
	l.note("front.retries", retries, "count", "front_retries_total delta")

	// serve
	n := float64(len(serveMS))
	handlerMean := mean(serveMS)
	base = fmt.Sprintf("%d replica handler spans", len(serveMS))
	l.add("serve.handler_ms_p50", median(serveMS), "ms", base)
	l.add("serve.handler_ms_mean", handlerMean, "ms", base)
	l.add("serve.req_bytes_per_op", float64(reqBytes)/n, "bytes", fmt.Sprintf("%d bytes / %d requests", reqBytes, len(serveMS)))
	l.add("serve.resp_bytes_per_op", float64(respBytes)/n, "bytes", fmt.Sprintf("%d bytes / %d requests", respBytes, len(serveMS)))
	if wl == wlBulk {
		l.note("serve.edge_ms_per_op", handlerMean-coreMS, "ms",
			fmt.Sprintf("handler %.3f ms − direct core lane %.3f ms on the same batches", handlerMean, coreMS))
		l.note("core.share_of_bulk", coreMS/handlerMean, "ratio", fmt.Sprintf("direct %.3f ms ÷ handler %.3f ms", coreMS, handlerMean))
	}
	l.note("serve.rejected", float64(rejected), "count", "replica responses with status 429")
	for _, st := range serveStages {
		label := `stage="` + st + `"`
		sum := delta("nanocostd_span_seconds_sum", label)
		cnt := delta("nanocostd_span_seconds_count", label)
		desc := fmt.Sprintf("%.1f ms over %.0f spans", 1e3*sum, cnt)
		switch {
		case st == "serve.request":
			l.add("serve.stage_ms_mean."+st, ratio(1e3*sum, cnt), "ms", desc)
		case cnt > 0:
			l.note("serve.stage_ms_mean."+st, 1e3*sum/cnt, "ms", desc)
		default:
			continue
		}
		l.note("serve.stage_count."+st, cnt, "count", "nanocostd_span_seconds_count delta")
	}

	// memo
	hits := float64(l.after.figures.Hits - l.before.figures.Hits)
	misses := float64(l.after.figures.Misses - l.before.figures.Misses)
	l.add("memo.hits", hits, "count", "serve.figures hits")
	l.add("memo.fills", misses, "count", "serve.figures misses")
	if hits+misses > 0 {
		l.note("memo.hit_ratio", hits/(hits+misses), "ratio", fmt.Sprintf("%.0f hits / %.0f lookups of serve.figures", hits, hits+misses))
	}

	// core
	l.add("core.evals_per_s_direct", bulkItems/(coreMS/1e3), "evals/s", fmt.Sprintf("%d evals / %.3f ms", bulkItems, coreMS))
	l.note("core.direct_ms_per_batch", coreMS, "ms", "core.BatchArena.EvalBatchInto + eq (6) on one bulk pool batch")

	// parallel
	chunks := float64(l.after.chunks - l.before.chunks)
	l.add("parallel.chunks", chunks, "count", "parallel.ChunkExecSeconds count delta")
	if chunks > 0 {
		waits := float64(l.after.waitCount - l.before.waitCount)
		waitMS := 1e3 * (l.after.waitSum - l.before.waitSum)
		execMS := 1e3 * (l.after.execSum - l.before.execSum)
		l.note("parallel.chunk_wait_ms_mean", ratio(waitMS, waits), "ms", fmt.Sprintf("%.1f ms over %.0f chunks", waitMS, waits))
		l.note("parallel.chunk_exec_ms_mean", execMS/chunks, "ms", fmt.Sprintf("%.1f ms over %.0f chunks", execMS, chunks))
		l.note("parallel.wait_ratio", ratio(waitMS, execMS), "ratio", fmt.Sprintf("wait %.1f ms ÷ exec %.1f ms", waitMS, execMS))
	}

	// mcjob
	l.add("mcjob.trials_per_s_direct", jobTrials/(mcjobMS/1e3), "trials/s",
		fmt.Sprintf("%d trials / %.1f ms, mean of %d mcjob.Run calls", jobTrials, mcjobMS, mcjobRuns))
	if wl == wlJob {
		var httpMS []float64
		for _, jr := range l.w.jobs {
			if _, ok := windowDirect[jr.index]; ok {
				httpMS = append(httpMS, float64(jr.toResult)/1e6)
			}
		}
		h := mean(httpMS)
		l.note("mcjob.http_ms_per_job", h, "ms", fmt.Sprintf("submit → result through the router, %d jobs", len(httpMS)))
		l.note("mcjob.direct_ms_per_job", mcjobMS, "ms", fmt.Sprintf("mcjob.Run of the same specs, %d jobs", mcjobRuns))
		l.note("mcjob.serving_overhead_ratio", ratio(h, mcjobMS), "ratio", fmt.Sprintf("%.1f ms ÷ %.1f ms", h, mcjobMS))
		sum := delta("nanocostd_job_shard_seconds_sum", "")
		cnt := delta("nanocostd_job_shard_seconds_count", "")
		l.note("mcjob.shard_ms_mean", ratio(1e3*sum, cnt), "ms", fmt.Sprintf("%.1f ms over %.0f shards", 1e3*sum, cnt))
		var first, tail, flushes []float64
		for _, ev := range events {
			first = append(first, ev.firstMergeMS)
			tail = append(tail, ev.tailMS)
			flushes = append(flushes, float64(ev.flushes))
		}
		base := fmt.Sprintf("mean over %d job timelines", len(events))
		l.note("mcjob.first_merge_ms", mean(first), "ms", base)
		l.note("mcjob.tail_ms", mean(tail), "ms", base)
		l.note("mcjob.checkpoint_flushes", mean(flushes), "count", base)
	}

	// obs: the traced window's throughput against the untraced one's.
	pu := float64(l.untraced.ops) / l.untraced.elapsed.Seconds()
	pt := float64(l.w.ops) / l.w.elapsed.Seconds()
	l.add("obs.trace_overhead_pct", 100*(pu-pt)/pu, "%", fmt.Sprintf("untraced %.2f vs traced %.2f ops/s", pu, pt))
	const droppedTotal = "obs_trace_spans_dropped_total"
	dropped := promSum(l.after.router, droppedTotal, "") - promSum(l.before.router, droppedTotal, "") + delta(droppedTotal, "")
	l.note("obs.spans_dropped", dropped+float64(b.rec.dropped), "count",
		fmt.Sprintf("program span caps %.0f + benchmark recorder %d", dropped, b.rec.dropped))

	// go
	l.add("go.allocs_per_op", float64(l.w.mallocs)/ops, "count", fmt.Sprintf("%d mallocs / %.0f ops", l.w.mallocs, ops))
	l.add("go.alloc_bytes_per_op", float64(l.w.allocBytes)/ops, "bytes", fmt.Sprintf("%d bytes / %.0f ops", l.w.allocBytes, ops))
	l.add("go.gc_cycles_per_kop", 1e3*float64(l.w.gcCycles)/ops, "count", fmt.Sprintf("%d GC cycles / %.0f ops", l.w.gcCycles, ops))

	// Output: self-time table, metrics and notes with bases, span dump.
	fmt.Fprintf(out, "# perfbench %s seed %d: traced window %.2f s, %d ops\n", wl, b.cfg.seed, l.w.elapsed.Seconds(), l.w.ops)
	fmt.Fprintln(out, "# per-layer self time (span duration minus time covered by child spans)")
	writeSelfTable(out, selfTable(spans, self))
	fmt.Fprintln(out, "# per-layer metrics (the result line; every workload reports these)")
	writeLayerMetrics(out, l.metrics)
	fmt.Fprintf(out, "# layer notes (numbers of layers this workload reaches; table only)\n")
	writeLayerMetrics(out, l.notes)
	dump := filepath.Join(filepath.Dir(b.cfg.outDir), fmt.Sprintf("spans-%s-seed%d.ndjson", wl, b.cfg.seed))
	if err := dumpSpans(dump, spans, self); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(out, "# span dump: %s (%d of %d spans)\n", dump, min(len(spans), spanDumpLimit), len(spans))
	return nil
}

func writeLayerMetrics(out io.Writer, ms []layerMetric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%-38s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.base)
	}
}

func hasChild(spans []span, i int) bool {
	for _, s := range spans[i+1:] {
		if s.Start > spans[i].End {
			return false
		}
		if s.Parent == i {
			return true
		}
	}
	return false
}

// coreDirect is the direct core lane, run after every traced window: the
// items of every bulk pool batch of the seed evaluated in-process, eq (4)
// scenarios through core.BatchArena.EvalBatchInto and eq (6) items
// through the design-cost model, with no HTTP, JSON or router. It
// returns milliseconds per batch.
func (b *bench) coreDirect() (float64, error) {
	type batch struct {
		scs []core.Scenario
		dcs []designItem
	}
	var batches []batch
	for p := 0; p < bulkPoolSize; p++ {
		scs, dcs, err := parseBulk(bulkBody(b.cfg.seed, p))
		if err != nil {
			return 0, err
		}
		batches = append(batches, batch{scs, dcs})
	}
	var arena core.BatchArena
	ctx := context.Background()
	const minLane = time.Second
	start := time.Now()
	n := 0
	for time.Since(start) < minLane {
		for _, bt := range batches {
			s0 := b.rec.now()
			_, errs, stop := arena.EvalBatchInto(ctx, bt.scs)
			if stop != nil {
				return 0, stop
			}
			for _, e := range errs {
				if e != nil {
					return 0, fmt.Errorf("direct core lane: %w", e)
				}
			}
			for _, d := range bt.dcs {
				if _, err := d.model.Cost(d.transistors, d.sd); err != nil {
					return 0, err
				}
				if _, err := d.model.MarginalCost(d.transistors, d.sd); err != nil {
					return 0, err
				}
			}
			b.rec.add(span{Name: layerCore, Trace: "core-" + strconv.Itoa(n), Start: s0, End: b.rec.now()})
			n++
		}
	}
	return float64(time.Since(start)) / 1e6 / float64(n), nil
}

// mcjobLaneJobs is how many jobs the direct mcjob lane runs on a
// workload that runs no jobs through the tier.
const mcjobLaneJobs = 2

// mcjobDirect returns the mean milliseconds of a direct mcjob.Run of a
// job spec, and how many runs the mean covers. On the job workload these
// are the oracle's runs of the window's jobs; elsewhere the lane runs
// mcjobLaneJobs seeded specs from an index range no timed job reaches.
func (b *bench) mcjobDirect(direct map[uint64]time.Duration) (float64, int, error) {
	if len(direct) == 0 {
		direct = map[uint64]time.Duration{}
		for k := uint64(0); k < mcjobLaneJobs; k++ {
			i := 1<<41 + k
			s0 := b.rec.now()
			t0 := time.Now()
			if _, err := jobReference(context.Background(), b.cfg.seed, i); err != nil {
				return 0, 0, fmt.Errorf("direct mcjob lane: %w", err)
			}
			direct[i] = time.Since(t0)
			b.rec.add(span{Name: layerMCJob, Trace: "job-" + strconv.FormatUint(i, 10), Start: s0, End: b.rec.now()})
		}
	}
	var sum time.Duration
	for _, d := range direct {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(direct)), len(direct), nil
}

type designItem struct {
	model           core.DesignCostModel
	transistors, sd float64
}

// parseBulk decodes a bulk batch body into the inputs of the direct
// lane, applying the defaults the server applies to omitted fields.
func parseBulk(body []byte) ([]core.Scenario, []designItem, error) {
	type scenarioIn struct {
		Process struct {
			LambdaUM   float64 `json:"lambda_um"`
			CostPerCM2 float64 `json:"cost_per_cm2"`
			Yield      float64 `json:"yield"`
		} `json:"process"`
		Design struct {
			Transistors float64 `json:"transistors"`
			Sd          float64 `json:"sd"`
		} `json:"design"`
		Wafers      float64 `json:"wafers"`
		Utilization float64 `json:"utilization"`
	}
	var req struct {
		Items []struct {
			Kind string          `json:"kind"`
			Body json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	var (
		scs []core.Scenario
		dcs []designItem
	)
	for _, it := range req.Items {
		switch it.Kind {
		case "cost", "generalized":
			var sc scenarioIn
			raw := it.Body
			if it.Kind == "generalized" {
				var g struct {
					Scenario json.RawMessage `json:"scenario"`
				}
				if err := json.Unmarshal(raw, &g); err != nil {
					return nil, nil, err
				}
				raw = g.Scenario
			}
			if err := json.Unmarshal(raw, &sc); err != nil {
				return nil, nil, err
			}
			mask, err := maskcost.DefaultModel().SetCost(sc.Process.LambdaUM)
			if err != nil {
				return nil, nil, err
			}
			scs = append(scs, core.Scenario{
				Process: core.Process{LambdaUM: sc.Process.LambdaUM, CostPerCM2: sc.Process.CostPerCM2,
					Yield: sc.Process.Yield, WaferAreaCM2: 300},
				Design:      core.Design{Transistors: sc.Design.Transistors, Sd: sc.Design.Sd},
				DesignCost:  core.DefaultDesignCostModel(),
				MaskCost:    mask,
				Wafers:      sc.Wafers,
				Utilization: sc.Utilization,
			})
		case "designcost":
			var d struct {
				Transistors float64 `json:"transistors"`
				Sd          float64 `json:"sd"`
				Model       *struct {
					A0, P1, P2, Sd0 float64
				} `json:"model"`
			}
			if err := json.Unmarshal(it.Body, &d); err != nil {
				return nil, nil, err
			}
			m := core.DefaultDesignCostModel()
			if d.Model != nil {
				m = core.DesignCostModel{A0: d.Model.A0, P1: d.Model.P1, P2: d.Model.P2, Sd0: d.Model.Sd0}
			}
			dcs = append(dcs, designItem{model: m, transistors: d.Transistors, sd: d.Sd})
		default:
			return nil, nil, fmt.Errorf("bulk item kind %q", it.Kind)
		}
	}
	return scs, dcs, nil
}

// jobTimeline is what one job's event timeline says about its shards.
type jobTimeline struct {
	firstMergeMS, tailMS float64
	flushes              int
}

// jobEvents fetches each job's GET /v1/jobs/{id}/events snapshot through
// the router, after the window, and reads its shard timeline.
func (b *bench) jobEvents(t *tier, jobs []jobRun) ([]jobTimeline, error) {
	var out []jobTimeline
	var buf bytes.Buffer
	for _, jr := range jobs {
		if jr.err != nil {
			continue
		}
		rq := request{method: "GET", path: "/v1/jobs/" + jr.id + "/events"}
		if err := doOK(b.client, t.routerURL, rq, "events-"+jr.id, "", &buf); err != nil {
			return nil, fmt.Errorf("job %s events: %w", jr.id, err)
		}
		var body struct {
			Events []mcjob.Event `json:"events"`
		}
		if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
			return nil, fmt.Errorf("job %s events: %w", jr.id, err)
		}
		var (
			submitted time.Time
			merged    []time.Time
			tl        jobTimeline
		)
		for _, ev := range body.Events {
			switch ev.Type {
			case mcjob.EventSubmitted:
				submitted = ev.Time
			case mcjob.EventShardMerged:
				merged = append(merged, ev.Time)
			case mcjob.EventCheckpointFlush:
				tl.flushes++
			}
		}
		if submitted.IsZero() || len(merged) < 2 {
			return nil, fmt.Errorf("job %s timeline has no submit or fewer than two merges", jr.id)
		}
		tl.firstMergeMS = float64(merged[0].Sub(submitted)) / 1e6
		tl.tailMS = float64(merged[len(merged)-1].Sub(merged[len(merged)-2])) / 1e6
		out = append(out, tl)
	}
	return out, nil
}
