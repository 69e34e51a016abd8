package main

import (
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// This file generates every input the benchmark sends. Each generator is
// a pure function of the workload seed and an operation index, so the
// same seed always yields the same request bytes and the program under
// test only ever sees those bytes.

// request is one HTTP operation of a workload.
type request struct {
	method string
	path   string // escaped path plus query
	body   []byte
	shape  string // interactive request kind, for setup and reporting
}

// Interactive request shapes, in round-robin order. The figure slot
// alternates between the hot and the cold key set.
const (
	shapeCost        = "cost"
	shapeDesignCost  = "designcost"
	shapeGeneralized = "generalized"
	shapeBatch8      = "batch8"
	shapeFigureHot   = "figure_hot"
	shapeFigureCold  = "figure_cold"
)

// interactiveSlots is the round-robin period of the interactive mix.
const interactiveSlots = 5

// Figure key sets. The serve.figures memo holds 16 entries; the hot set
// (figures 1–3, whose key ignores ?points=, plus four Figure 4
// resolutions) fits in it, the cold set is 32× larger than it, so cold
// fetches fill and evict while hot fetches hit.
var hotFigure4Points = []int{8, 12, 24, 48}

const (
	coldFigure4Lo    = 64
	coldFigure4Count = 512
)

// rng returns the generator for operation i of a workload stream.
// Streams are separated by tag so interactive, bulk and job inputs of one
// seed never share draws.
func rng(seed uint64, tag uint64, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^tag*0x9e3779b97f4a7c15, i))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(uniform(r, math.Log(lo), math.Log(hi)))
}

// num formats a float with six significant digits: short, and exactly
// reproducible from the draw.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// scenarioBody writes one eq (4) scenario. The die area is drawn first
// (0.2–2.5 cm²) and the transistor count derived from it, so every
// scenario fits on a wafer and keeps a positive analytic yield.
func scenarioBody(sb *strings.Builder, r *rand.Rand, utilization bool) {
	lambda := uniform(r, 0.05, 0.25)
	sd := uniform(r, 150, 600)
	area := uniform(r, 0.2, 2.5)
	lambdaSqCM2 := lambda * lambda * 1e-8
	transistors := math.Round(area / (lambdaSqCM2 * sd))
	sb.WriteString(`{"process":{"lambda_um":`)
	sb.WriteString(num(lambda))
	sb.WriteString(`,"cost_per_cm2":`)
	sb.WriteString(num(uniform(r, 4, 12)))
	sb.WriteString(`,"yield":`)
	sb.WriteString(num(uniform(r, 0.5, 0.95)))
	sb.WriteString(`},"design":{"transistors":`)
	sb.WriteString(num(transistors))
	sb.WriteString(`,"sd":`)
	sb.WriteString(num(sd))
	sb.WriteString(`},"wafers":`)
	sb.WriteString(num(logUniform(r, 1e3, 1e5)))
	if utilization {
		sb.WriteString(`,"utilization":`)
		sb.WriteString(num(uniform(r, 0.1, 1)))
	}
	sb.WriteByte('}')
}

func designCostBody(sb *strings.Builder, r *rand.Rand) {
	sb.WriteString(`{"transistors":`)
	sb.WriteString(num(logUniform(r, 1e5, 1e9)))
	sb.WriteString(`,"sd":`)
	sb.WriteString(num(uniform(r, 120, 900)))
	if r.IntN(2) == 0 {
		sb.WriteString(`,"model":{"a0":`)
		sb.WriteString(num(uniform(r, 500, 2000)))
		sb.WriteString(`,"p1":1,"p2":`)
		sb.WriteString(num(uniform(r, 1.1, 1.4)))
		sb.WriteString(`,"sd0":100}`)
	}
	sb.WriteByte('}')
}

var yieldModels = []string{"poisson", "murphy", "seeds", "negbinomial"}

func generalizedBody(sb *strings.Builder, r *rand.Rand, withYieldModel bool) {
	sb.WriteString(`{"scenario":`)
	scenarioBody(sb, r, true)
	if withYieldModel {
		m := yieldModels[r.IntN(len(yieldModels))]
		sb.WriteString(`,"yield_model":{"model":"`)
		sb.WriteString(m)
		sb.WriteString(`"`)
		if m == "negbinomial" {
			sb.WriteString(`,"alpha":`)
			sb.WriteString(num(uniform(r, 0.5, 5)))
		}
		sb.WriteString(`,"d0":`)
		sb.WriteString(num(uniform(r, 0.05, 0.8)))
		sb.WriteByte('}')
	}
	sb.WriteByte('}')
}

// batchItem writes one /v1/batch item of the given kind.
func batchItem(sb *strings.Builder, r *rand.Rand, kind string) {
	sb.WriteString(`{"kind":"`)
	sb.WriteString(kind)
	sb.WriteString(`","body":`)
	switch kind {
	case "cost":
		scenarioBody(sb, r, false)
	case "designcost":
		designCostBody(sb, r)
	case "generalized":
		// No yield model: the item stays an eq (4) scenario, so the
		// direct core lane can evaluate it through core.BatchArena.
		generalizedBody(sb, r, false)
	}
	sb.WriteByte('}')
}

// bulkKind is the fixed kind mix of every bulk batch: half cost, a
// quarter generalized, a quarter designcost.
func bulkKind(j int) string {
	switch j % 4 {
	case 2:
		return "generalized"
	case 3:
		return "designcost"
	default:
		return "cost"
	}
}

// interactiveShape is the shape of interactive operation i.
func interactiveShape(i uint64) string {
	switch i % interactiveSlots {
	case 0:
		return shapeCost
	case 1:
		return shapeDesignCost
	case 2:
		return shapeGeneralized
	case 3:
		return shapeBatch8
	default:
		if (i/interactiveSlots)%2 == 0 {
			return shapeFigureHot
		}
		return shapeFigureCold
	}
}

// interactiveEvals is the number of evaluations interactive operation i
// asks for: one per single evaluation, eight per batch, none for a
// figure fetch.
func interactiveEvals(i uint64) int64 {
	switch interactiveShape(i) {
	case shapeCost, shapeDesignCost, shapeGeneralized:
		return 1
	case shapeBatch8:
		return 8
	}
	return 0
}

// interactiveRequest is operation i of the interactive workload: a
// distinct seeded single evaluation or a figure fetch.
func interactiveRequest(seed, i uint64) request {
	r := rng(seed, 1, i)
	shape := interactiveShape(i)
	var sb strings.Builder
	switch shape {
	case shapeCost:
		scenarioBody(&sb, r, false)
		return request{method: "POST", path: "/v1/cost", body: []byte(sb.String()), shape: shape}
	case shapeDesignCost:
		designCostBody(&sb, r)
		return request{method: "POST", path: "/v1/designcost", body: []byte(sb.String()), shape: shape}
	case shapeGeneralized:
		generalizedBody(&sb, r, true)
		return request{method: "POST", path: "/v1/generalized", body: []byte(sb.String()), shape: shape}
	case shapeBatch8:
		sb.WriteString(`{"items":[`)
		for j := 0; j < 8; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			batchItem(&sb, r, bulkKind(j))
		}
		sb.WriteString(`]}`)
		return request{method: "POST", path: "/v1/batch", body: []byte(sb.String()), shape: shape}
	case shapeFigureHot:
		// Figures 1–3 plus the four hot Figure 4 resolutions: seven keys.
		n := r.IntN(3 + len(hotFigure4Points))
		if n < 3 {
			return request{method: "GET", path: "/v1/figures/" + strconv.Itoa(n+1) + "?points=" + strconv.Itoa(hotFigure4Points[0]), shape: shape}
		}
		return request{method: "GET", path: "/v1/figures/4?points=" + strconv.Itoa(hotFigure4Points[n-3]), shape: shape}
	default:
		k := coldFigure4Lo + r.IntN(coldFigure4Count)
		return request{method: "GET", path: "/v1/figures/4?points=" + strconv.Itoa(k), shape: shape}
	}
}

// Bulk: every request is a 1024-item batch drawn from a pool of
// bulkPoolSize distinct seeded bodies, cycled.
const (
	bulkItems    = 1024
	bulkPoolSize = 32
)

// bulkBody is batch b of the bulk pool.
func bulkBody(seed uint64, b int) []byte {
	r := rng(seed, 2, uint64(b))
	var sb strings.Builder
	sb.Grow(bulkItems * 220)
	sb.WriteString(`{"items":[`)
	for j := 0; j < bulkItems; j++ {
		if j > 0 {
			sb.WriteByte(',')
		}
		batchItem(&sb, r, bulkKind(j))
	}
	sb.WriteString(`]}`)
	return []byte(sb.String())
}

// Job: montecarlo jobs of jobTrials trials over jobShards shards with
// uncertain yield U(0.3, 0.6) and s_d U(250, 400). The scenario spells
// out every field the server would otherwise default, so the direct
// mcjob.Run lane builds the identical kernel from the same numbers.
const (
	jobTrials = 16 << 20
	jobShards = 8
)

// jobScenario is the fixed base scenario of every job.
var jobScenario = struct {
	lambda, costPerCM2, yield, waferArea, transistors, sd, wafers, maskCost float64
	a0, p1, p2, sd0                                                         float64
}{
	lambda: 0.13, costPerCM2: 8, yield: 0.45, waferArea: 300,
	transistors: 5e7, sd: 300, wafers: 2e4, maskCost: 1.2e6,
	a0: 1000, p1: 1, p2: 1.2, sd0: 100,
}

// jobSeed is the Monte Carlo seed of job i. Job ids are content hashes
// of the spec, so distinct seeds keep every job a fresh computation.
func jobSeed(seed, i uint64) uint64 {
	return rng(seed, 3, i).Uint64() | 1
}

// jobBody is the POST /v1/jobs body of job i.
func jobBody(seed, i uint64) []byte {
	s := jobScenario
	return []byte(`{"kind":"montecarlo","trials":` + strconv.Itoa(jobTrials) +
		`,"shards":` + strconv.Itoa(jobShards) +
		`,"seed":` + strconv.FormatUint(jobSeed(seed, i), 10) +
		`,"checkpoint":true,"montecarlo":{"scenario":{"process":{"lambda_um":` + num(s.lambda) +
		`,"cost_per_cm2":` + num(s.costPerCM2) + `,"yield":` + num(s.yield) +
		`,"wafer_area_cm2":` + num(s.waferArea) + `},"design":{"transistors":` + num(s.transistors) +
		`,"sd":` + num(s.sd) + `},"design_cost":{"a0":` + num(s.a0) + `,"p1":` + num(s.p1) +
		`,"p2":` + num(s.p2) + `,"sd0":` + num(s.sd0) + `},"mask_cost":` + num(s.maskCost) +
		`,"wafers":` + num(s.wafers) + `},"yield":{"kind":"uniform","lo":0.3,"hi":0.6}` +
		`,"sd":{"kind":"uniform","lo":250,"hi":400}}}`)
}
