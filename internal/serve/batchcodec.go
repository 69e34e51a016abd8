package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// This file is the reflection-free codec of POST /v1/batch.
//
// Decode: scanBatch parses a canonical batch body straight into typed
// items. Canonical means exact-case known keys, each at most once; every
// item spelled {"kind":…,"body":…} in that order with a known kind;
// JSON-grammar numbers that strconv.ParseFloat accepts (as encoding/json
// parses float64 fields); escape-free printable-ASCII strings; no null;
// and nothing after the object but whitespace. The scanner accepts only
// bodies on which encoding/json's strict decode would succeed with the
// same values, so anything else is left to that decoder (see
// batchScratch.decode): it stays the authority for every other body and
// for every error text.
//
// Encode: the typed results append their JSON with the byte-for-byte
// output encoding/json gives them, which is what keeps a batch item's
// body identical to the single endpoint's response.

// batchItem is one decoded /v1/batch item: its kind and the request of
// that kind. Items are pooled, and the optional pointer fields of a
// scanned request point at the item's own dcm, mask and ym, so scanning
// into a recycled item allocates nothing but the name strings.
type batchItem struct {
	kind   string
	gen    generalizedRequest // "generalized"; "cost" uses gen.Scenario alone
	design designCostRequest  // "designcost"
	dcm    designCostJSON     // backs a scanned DesignCost or Model
	mask   float64            // backs a scanned MaskCost
	ym     yieldModelJSON     // backs a scanned YieldModel
}

// batchScanner is a cursor over a batch body. Every method skips leading
// whitespace and reports false on the first non-canonical byte.
type batchScanner struct {
	b []byte
	i int
}

// scanBatch parses a canonical batch body into items, reusing the item
// values already in items, and reports false if the body is not
// canonical or holds more than maxBatchItems items. The returned slice
// holds the items scanned so far either way, so the caller can clear
// them.
func scanBatch(body []byte, items []*batchItem) ([]*batchItem, bool) {
	s := batchScanner{b: body}
	items = items[:0]
	if !s.lit('{') || !s.key("items") || !s.lit('[') {
		return items, false
	}
	if !s.lit(']') {
		for {
			if len(items) == maxBatchItems {
				return items, false
			}
			items = nextItem(items)
			if !s.item(items[len(items)-1]) {
				return items, false
			}
			if s.lit(',') {
				continue
			}
			if !s.lit(']') {
				return items, false
			}
			break
		}
	}
	if !s.lit('}') {
		return items, false
	}
	s.ws()
	return items, s.i == len(s.b)
}

// nextItem extends items by one pooled item. Item values beyond len
// survive from earlier requests (cleared), so they are reused before any
// new one is allocated.
func nextItem(items []*batchItem) []*batchItem {
	n := len(items)
	if n < cap(items) {
		items = items[:n+1]
	} else {
		items = append(items, nil)
	}
	if items[n] == nil {
		items[n] = new(batchItem)
	}
	return items
}

func (s *batchScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the structural byte c.
func (s *batchScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes an escape-free printable-ASCII string and returns its
// contents.
func (s *batchScanner) str() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key consumes the object key want and its colon.
func (s *batchScanner) key(want string) bool {
	k, ok := s.str()
	return ok && string(k) == want && s.lit(':')
}

// text consumes a string value into dst.
func (s *batchScanner) text(dst *string) bool {
	v, ok := s.str()
	*dst = string(v)
	return ok
}

// float consumes a JSON-grammar number into dst, parsed as encoding/json
// parses a float64 field; an out-of-range number is not canonical.
func (s *batchScanner) float(dst *float64) bool {
	s.ws()
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = s.digits(j)
	default:
		return false
	}
	if j < len(b) && b[j] == '.' {
		if j = s.digits(j + 1); b[j-1] == '.' {
			return false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := s.digits(j)
		if k == j {
			return false
		}
		j = k
	}
	f, err := strconv.ParseFloat(string(b[s.i:j]), 64)
	if err != nil {
		return false
	}
	*dst, s.i = f, j
	return true
}

// digits returns the index of the first non-digit at or after j.
func (s *batchScanner) digits(j int) int {
	for j < len(s.b) && '0' <= s.b[j] && s.b[j] <= '9' {
		j++
	}
	return j
}

// object consumes an object, handing each key to field, which consumes
// the value. field reports false for an unknown or repeated key.
func (s *batchScanner) object(field func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		k, ok := s.str()
		if !ok || !s.lit(':') || !field(k) {
			return false
		}
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

// once marks field bit in seen and reports whether it was clear, which
// rejects repeated keys (encoding/json would let the last one win, or
// merge repeated objects).
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// item consumes {"kind":…,"body":…} into it.
func (s *batchScanner) item(it *batchItem) bool {
	*it = batchItem{}
	if !s.lit('{') || !s.key("kind") {
		return false
	}
	kind, ok := s.str()
	if !ok || !s.lit(',') || !s.key("body") {
		return false
	}
	switch string(kind) {
	case "cost":
		it.kind = "cost"
		ok = s.scenario(&it.gen.Scenario, it)
	case "designcost":
		it.kind = "designcost"
		ok = s.designCostRequest(it)
	case "generalized":
		it.kind = "generalized"
		ok = s.generalized(it)
	default:
		return false
	}
	return ok && s.lit('}')
}

func (s *batchScanner) scenario(sc *scenarioJSON, it *batchItem) bool {
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "process":
			return once(&seen, 1) && s.process(&sc.Process)
		case "design":
			return once(&seen, 2) && s.design(&sc.Design)
		case "design_cost":
			sc.DesignCost = &it.dcm
			return once(&seen, 4) && s.designCost(&it.dcm)
		case "mask_cost":
			sc.MaskCost = &it.mask
			return once(&seen, 8) && s.float(&it.mask)
		case "wafers":
			return once(&seen, 16) && s.float(&sc.Wafers)
		case "utilization":
			return once(&seen, 32) && s.float(&sc.Utilization)
		}
		return false
	})
}

func (s *batchScanner) process(p *processJSON) bool {
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			return once(&seen, 1) && s.text(&p.Name)
		case "lambda_um":
			return once(&seen, 2) && s.float(&p.LambdaUM)
		case "cost_per_cm2":
			return once(&seen, 4) && s.float(&p.CostPerCM2)
		case "yield":
			return once(&seen, 8) && s.float(&p.Yield)
		case "wafer_area_cm2":
			return once(&seen, 16) && s.float(&p.WaferAreaCM2)
		}
		return false
	})
}

func (s *batchScanner) design(d *designJSON) bool {
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			return once(&seen, 1) && s.text(&d.Name)
		case "transistors":
			return once(&seen, 2) && s.float(&d.Transistors)
		case "sd":
			return once(&seen, 4) && s.float(&d.Sd)
		}
		return false
	})
}

func (s *batchScanner) designCost(m *designCostJSON) bool {
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "a0":
			return once(&seen, 1) && s.float(&m.A0)
		case "p1":
			return once(&seen, 2) && s.float(&m.P1)
		case "p2":
			return once(&seen, 4) && s.float(&m.P2)
		case "sd0":
			return once(&seen, 8) && s.float(&m.Sd0)
		}
		return false
	})
}

func (s *batchScanner) designCostRequest(it *batchItem) bool {
	req := &it.design
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "transistors":
			return once(&seen, 1) && s.float(&req.Transistors)
		case "sd":
			return once(&seen, 2) && s.float(&req.Sd)
		case "model":
			req.Model = &it.dcm
			return once(&seen, 4) && s.designCost(&it.dcm)
		}
		return false
	})
}

func (s *batchScanner) generalized(it *batchItem) bool {
	req := &it.gen
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "scenario":
			return once(&seen, 1) && s.scenario(&req.Scenario, it)
		case "yield_model":
			req.YieldModel = &it.ym
			return once(&seen, 2) && s.yieldModel(&it.ym)
		}
		return false
	})
}

func (s *batchScanner) yieldModel(m *yieldModelJSON) bool {
	var seen uint8
	return s.object(func(k []byte) bool {
		switch string(k) {
		case "model":
			return once(&seen, 1) && s.text(&m.Model)
		case "alpha":
			return once(&seen, 2) && s.float(&m.Alpha)
		case "d0":
			return once(&seen, 4) && s.float(&m.D0)
		}
		return false
	})
}

// jsonAppender appends JSON tokens to b. The first float encoding/json
// would refuse (NaN, ±Inf) sticks in err with the error json.Marshal
// gives for it.
type jsonAppender struct {
	b   []byte
	err error
}

func (a *jsonAppender) raw(s string) { a.b = append(a.b, s...) }

// float appends f by encoding/json's float64 rule: the shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent written without its leading zero.
func (a *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if a.err == nil {
			a.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(a.b)
	a.b = strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(a.b); format == 'e' && n-start >= 4 && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1]
		a.b = a.b[:n-1]
	}
}

func (r breakdownJSON) appendTo(a *jsonAppender) {
	a.raw(`{"manufacturing":`)
	a.float(r.Manufacturing)
	a.raw(`,"design_and_mask":`)
	a.float(r.DesignAndMask)
	a.raw(`,"total":`)
	a.float(r.Total)
	a.raw(`,"cm_sq":`)
	a.float(r.CmSq)
	a.raw(`,"cd_sq":`)
	a.float(r.CdSq)
	a.raw(`,"die_area_cm2":`)
	a.float(r.DieAreaCM2)
	a.raw(`,"die_cost":`)
	a.float(r.DieCost)
	a.raw(`,"design_de":`)
	a.float(r.DesignDE)
	a.raw(`}`)
}

// appendJSON appends the json.Marshal encoding of r to b.
func (r costResult) appendJSON(b []byte) ([]byte, error) {
	a := jsonAppender{b: b}
	a.raw(`{"breakdown":`)
	r.Breakdown.appendTo(&a)
	a.raw(`}`)
	return a.b, a.err
}

// appendJSON appends the json.Marshal encoding of r to b.
func (r designCostResult) appendJSON(b []byte) ([]byte, error) {
	a := jsonAppender{b: b}
	a.raw(`{"design_cost":`)
	a.float(r.DesignCost)
	a.raw(`,"marginal_cost":`)
	a.float(r.MarginalCost)
	a.raw(`,"sd0":`)
	a.float(r.Sd0)
	a.raw(`}`)
	return a.b, a.err
}

// appendJSON appends the json.Marshal encoding of r to b.
func (r generalizedResult) appendJSON(b []byte) ([]byte, error) {
	a := jsonAppender{b: b}
	a.raw(`{"breakdown":`)
	r.Breakdown.appendTo(&a)
	a.raw(`,"effective_yield":`)
	a.float(r.EffectiveYield)
	a.raw(`,"utilization":`)
	a.float(r.Utilization)
	a.raw(`}`)
	return a.b, a.err
}
