package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
)

// Workload names.
const (
	wlInteractive = "interactive"
	wlBulk        = "bulk"
	wlJob         = "job"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string // scratch space inside the checkout
}

// Run shape.
const (
	setupBoots = 31                      // set-up is timed this many times; the median is reported
	warmFor    = 1500 * time.Millisecond // closed-loop warm-up before each window
	// oracleRatePerSec sizes the interactive reference table built before
	// timing: references for this many operations per timed or warm-up
	// second. A faster program that outruns it is still checked: the
	// table is extended after the window for the operations beyond it.
	oracleRatePerSec = 4000
)

// bench is the state of one run.
type bench struct {
	cfg     config
	clients int
	client  *http.Client
	rec     *recorder // nil when untraced
	orc     *oracle
	bulk    [][]byte
	bulkRef []digest

	next      atomic.Uint64 // next operation index
	attempted atomic.Int64
	failed    atomic.Int64

	// Interactive operations past the oracle's pre-built table, checked
	// after the window.
	lateMu sync.Mutex
	late   []lateOp

	jobs       []jobRun // every job run, checked after the windows
	setupJobID string   // job started by the last set-up, cancelled after timing
}

type lateOp struct {
	i  uint64
	ok bool // transport and status were fine
	d  digest
}

func newBench(cfg config, clients int) *bench {
	b := &bench{cfg: cfg, clients: clients, client: newClient(clients)}
	if cfg.trace {
		b.rec = newRecorder()
	}
	return b
}

// prepare generates the workload's inputs and the oracle's references,
// before anything is timed.
func (b *bench) prepare() error {
	switch b.cfg.workload {
	case wlInteractive:
		b.orc = newOracle(b.cfg.seed)
		windows := 1
		if b.cfg.trace {
			windows = 2
		}
		secs := float64(windows) * (float64(b.cfg.seconds) + warmFor.Seconds())
		return b.orc.ensureInteractive(int(secs*oracleRatePerSec), b.clients)
	case wlBulk:
		o := newOracle(b.cfg.seed)
		for p := 0; p < bulkPoolSize; p++ {
			body := bulkBody(b.cfg.seed, p)
			d, err := o.reference(request{method: "POST", path: "/v1/batch", body: body})
			if err != nil {
				return err
			}
			b.bulk = append(b.bulk, body)
			b.bulkRef = append(b.bulkRef, d)
		}
		return nil
	case wlJob:
		return nil
	}
	return fmt.Errorf("unknown workload %q (want %s, %s or %s)", b.cfg.workload, wlInteractive, wlBulk, wlJob)
}

// setupShapes sends every request shape of the workload once through a
// freshly booted tier.
func (b *bench) setupShapes(t *tier, boot int) error {
	switch b.cfg.workload {
	case wlInteractive:
		// Operations 0–3 cover the evaluation shapes; the two figure
		// shapes use fixed keys, one hot and one cold, so the set-up
		// work does not depend on the seed.
		op := b.interactiveOp(t.routerURL)
		cs := &clientState{http: b.client}
		for _, i := range []uint64{0, 1, 2, 3} {
			_, ok := op(cs, i)
			b.count(ok)
		}
		for _, rq := range setupFigures {
			d, err := b.orc.interactiveDigest(rq)
			if err != nil {
				return err
			}
			_, code, err := b.exchange(cs, t.routerURL, rq, "setup-figure")
			b.count(checkBody(code, err, cs.buf.Bytes(), d))
		}
		b.next.Store(4)
	case wlBulk:
		_, ok := b.bulkOp(t.routerURL)(&clientState{http: b.client}, 0)
		b.count(ok)
		b.next.Store(1)
	case wlJob:
		// Set-up jobs use an index range no timed job reaches.
		id, err := setupJob(b.client, t.routerURL, b.cfg.seed, 1<<40+uint64(boot))
		if err != nil {
			return err
		}
		b.setupJobID = id
	}
	return nil
}

func (b *bench) count(ok bool) {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
	}
}

// setupFigures are the figure fetches of an interactive set-up: a hot
// key and a cold one.
var setupFigures = []request{
	{method: "GET", path: "/v1/figures/4?points=" + strconv.Itoa(hotFigure4Points[len(hotFigure4Points)-1]), shape: shapeFigureHot},
	{method: "GET", path: "/v1/figures/4?points=" + strconv.Itoa(coldFigure4Lo), shape: shapeFigureCold},
}

// boot starts a tier and sends each request shape once, returning the
// tier and the seconds that took. Memo caches are purged and the heap
// collected first, so every boot starts as cold as a fresh process and
// no boot pays for another's garbage.
func (b *bench) boot(boot int) (*tier, float64, error) {
	memo.PurgeAll()
	runtime.GC()
	start := time.Now()
	t, err := bootTier(filepath.Join(b.cfg.outDir, "boot-"+strconv.Itoa(boot)), b.rec)
	if err != nil {
		return nil, 0, err
	}
	if err := t.ready(b.client, 10*time.Second); err != nil {
		t.close()
		return nil, 0, err
	}
	if err := b.setupShapes(t, boot); err != nil {
		t.close()
		return nil, 0, err
	}
	secs := time.Since(start).Seconds()
	if b.setupJobID != "" {
		// The set-up job has answered; stop it before anything else runs.
		err := cancelJob(b.client, t.routerURL, b.setupJobID)
		b.setupJobID = ""
		if err != nil {
			t.close()
			return nil, 0, err
		}
	}
	return t, secs, nil
}

// interactiveOp sends interactive operation i through the router and
// checks the body against the oracle.
func (b *bench) interactiveOp(base string) opFunc {
	covered := uint64(b.orc.covers())
	return func(cs *clientState, i uint64) (time.Duration, bool) {
		rq := interactiveRequest(b.cfg.seed, i)
		rid := "i" + strconv.FormatUint(i, 10)
		lat, code, err := b.exchange(cs, base, rq, rid)
		if i < covered {
			return lat, checkBody(code, err, cs.buf.Bytes(), b.orc.interactive(i))
		}
		lo := lateOp{i: i, ok: err == nil && code == http.StatusOK, d: sha256.Sum256(cs.buf.Bytes())}
		b.lateMu.Lock()
		b.late = append(b.late, lo)
		b.lateMu.Unlock()
		return lat, true // judged after the window by checkLate
	}
}

// bulkOp sends bulk operation i (pool body i mod bulkPoolSize).
func (b *bench) bulkOp(base string) opFunc {
	return func(cs *clientState, i uint64) (time.Duration, bool) {
		p := int(i % bulkPoolSize)
		rq := request{method: "POST", path: "/v1/batch", body: b.bulk[p]}
		lat, code, err := b.exchange(cs, base, rq, "b"+strconv.FormatUint(i, 10))
		return lat, checkBody(code, err, cs.buf.Bytes(), b.bulkRef[p])
	}
}

// exchange performs one HTTP request and times it, recording a client
// span when tracing.
func (b *bench) exchange(cs *clientState, base string, rq request, rid string) (time.Duration, int, error) {
	var s0 int64
	if b.rec.active() {
		s0 = b.rec.now()
	}
	t0 := time.Now()
	code, err := do(cs.http, base, rq, rid, "", &cs.buf)
	lat := time.Since(t0)
	if b.rec.active() {
		b.rec.record(layerClient, rid, s0)
	}
	return lat, code, err
}

// checkLate verifies the operations that ran past the pre-built oracle
// table, and returns how many failed.
func (b *bench) checkLate() (int64, error) {
	var maxI uint64
	for _, lo := range b.late {
		maxI = max(maxI, lo.i)
	}
	if len(b.late) == 0 {
		return 0, nil
	}
	if err := b.orc.ensureInteractive(int(maxI)+1, b.clients); err != nil {
		return 0, err
	}
	var bad int64
	for _, lo := range b.late {
		if !lo.ok || lo.d != b.orc.interactive(lo.i) {
			bad++
		}
	}
	b.late = nil
	return bad, nil
}

// timed runs one closed-loop (or job-loop) period of d on the tier. It
// is used both for warm-ups and for timed windows.
func (b *bench) timed(t *tier, w *window, d time.Duration) {
	switch b.cfg.workload {
	case wlInteractive:
		closedLoop(w, b.client, b.clients, d, &b.next, b.interactiveOp(t.routerURL), interactiveEvals)
	case wlBulk:
		closedLoop(w, b.client, b.clients, d, &b.next, b.bulkOp(t.routerURL), func(uint64) int64 { return bulkItems })
	case wlJob:
		jobLoop(w, b.client, t.routerURL, b.cfg.seed, d, &b.next)
		b.jobs = append(b.jobs, w.jobs...)
	}
	b.attempted.Add(w.ops)
	b.failed.Add(w.failed)
}

// warm runs the workload untimed: a closed-loop period for interactive
// and bulk, one job for job (the first job of a process runs cold).
func (b *bench) warm(t *tier) {
	w := &window{}
	d := warmFor
	if b.cfg.workload == wlJob {
		d = time.Nanosecond // exactly one job
	}
	b.timed(t, w, d)
}

// window warms up and then measures one timed window.
func (b *bench) window(t *tier) (*window, error) {
	b.warm(t)
	return measure(func(w *window) error {
		b.timed(t, w, time.Duration(b.cfg.seconds)*time.Second)
		return nil
	})
}

// verifyJobs checks every job's served result against mcjob.Run of the
// same spec, outside the timed windows, and returns the direct run time
// of each job by index.
func (b *bench) verifyJobs() (map[uint64]time.Duration, error) {
	direct := map[uint64]time.Duration{}
	for _, jr := range b.jobs {
		if jr.err != nil {
			continue // already counted as failed
		}
		t0 := time.Now()
		var s0 int64
		if b.rec != nil {
			s0 = b.rec.now()
		}
		want, err := jobReference(context.Background(), b.cfg.seed, jr.index)
		if err != nil {
			return nil, fmt.Errorf("direct run of job %d: %w", jr.index, err)
		}
		direct[jr.index] = time.Since(t0)
		if b.rec != nil {
			b.rec.add(span{Name: layerMCJob, Trace: "job-" + strconv.FormatUint(jr.index, 10), Start: s0, End: b.rec.now()})
		}
		if err := checkJobResult(jr.result, jr.id, want); err != nil {
			b.failed.Add(1)
			fmt.Fprintln(logOut, "perfbench: oracle mismatch:", err)
		}
	}
	return direct, nil
}
