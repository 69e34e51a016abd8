package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/core"
	"repro/internal/mcjob"
	"repro/internal/serve"
)

// digest is the SHA-256 of a response body. The oracle stores digests
// rather than bodies so a long interactive run does not hold every
// reference response in memory; any changed byte changes the digest.
type digest [sha256.Size]byte

// oracle holds the expected body of every interactive and bulk
// operation, computed by calling a reference replica's Handler()
// directly, outside the tier and outside any timed window.
type oracle struct {
	ref http.Handler

	mu      sync.Mutex
	figures map[string]digest // figure responses, by path
	inter   []digest          // interactive operation i
	seed    uint64
}

func newOracle(seed uint64) *oracle {
	return &oracle{
		ref:     serve.NewServer(serve.Config{Logger: discardLogger}).Handler(),
		figures: map[string]digest{},
		seed:    seed,
	}
}

// reference answers rq on the reference handler and returns the body
// digest. A non-200 reference is a generator bug: the workloads are
// built so that no operation fails.
func (o *oracle) reference(rq request) (digest, error) {
	req := httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body))
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	o.ref.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return digest{}, fmt.Errorf("reference %s %s answered %d: %s", rq.method, rq.path, rec.Code, rec.Body.String())
	}
	return sha256.Sum256(rec.Body.Bytes()), nil
}

// ensureInteractive extends the interactive reference table to cover
// operations [0, n), using workers goroutines. Figure references are
// computed once per distinct path.
func (o *oracle) ensureInteractive(n, workers int) error {
	o.mu.Lock()
	have := len(o.inter)
	if n <= have {
		o.mu.Unlock()
		return nil
	}
	o.inter = append(o.inter, make([]digest, n-have)...)
	o.mu.Unlock()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := have + w; i < n; i += workers {
				rq := interactiveRequest(o.seed, uint64(i))
				d, err := o.interactiveDigest(rq)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				o.inter[i] = d
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

func (o *oracle) interactiveDigest(rq request) (digest, error) {
	if rq.method != "GET" {
		return o.reference(rq)
	}
	o.mu.Lock()
	d, ok := o.figures[rq.path]
	o.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := o.reference(rq)
	if err != nil {
		return d, err
	}
	o.mu.Lock()
	o.figures[rq.path] = d
	o.mu.Unlock()
	return d, nil
}

// interactive returns the expected digest of operation i; ensureInteractive
// must already cover it.
func (o *oracle) interactive(i uint64) digest { return o.inter[i] }

// covers reports how many interactive operations have references.
func (o *oracle) covers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.inter)
}

// jobReference runs the job's spec through mcjob.Run directly and
// returns the JSON encoding of its result, which must equal the
// "result" member of the served result envelope byte for byte.
func jobReference(ctx context.Context, seed, i uint64) ([]byte, error) {
	s := jobScenario
	u := core.UncertainScenario{
		Base: core.Scenario{
			Process: core.Process{LambdaUM: s.lambda, CostPerCM2: s.costPerCM2, Yield: s.yield, WaferAreaCM2: s.waferArea},
			Design:  core.Design{Transistors: s.transistors, Sd: s.sd},
			DesignCost: core.DesignCostModel{
				A0: s.a0, P1: s.p1, P2: s.p2, Sd0: s.sd0,
			},
			MaskCost: s.maskCost,
			Wafers:   s.wafers,
		},
		Yield: core.Uniform(0.3, 0.6),
		Sd:    core.Uniform(250, 400),
	}
	k, err := mcjob.NewCostKernel(u)
	if err != nil {
		return nil, err
	}
	res, err := mcjob.Run(ctx, k, mcjob.RunConfig{Trials: jobTrials, Shards: jobShards, Seed: jobSeed(seed, i)})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// checkJobResult compares a served result envelope with the direct
// result of the same spec.
func checkJobResult(envelope []byte, id string, want []byte) error {
	var env struct {
		ID     string          `json:"id"`
		Kind   string          `json:"kind"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return fmt.Errorf("job %s: decode result envelope: %w", id, err)
	}
	if env.ID != id || env.Kind != "montecarlo" {
		return fmt.Errorf("job %s: envelope names job %q kind %q", id, env.ID, env.Kind)
	}
	if !bytes.Equal(env.Result, want) {
		return fmt.Errorf("job %s: result differs from mcjob.Run of the same spec:\n got %s\nwant %s", id, env.Result, want)
	}
	return nil
}
