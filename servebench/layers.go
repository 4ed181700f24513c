package main

import (
	"encoding/json"
	"time"
)

const noSamples = "no samples on this workload"

// perLayer lists the per-layer metrics of a traced run, named
// <module>.<metric>. README.md says which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	{"server.unphased_ms.p50", "ms"},
	{"server.cache_ms.p50", "ms"},
	{"server.encode_ms.p50", "ms"},
	{"server.queue_wait_ms.p90", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.plan_cache_evictions_per_req", "1/req"},
	{"transport.residual_ms.p50", "ms"},
	{"transport.residual_ms.p90", "ms"},
	{"hypergraph.parse_ms.p50", "ms"},
	{"hypergraph.parse_span_ms.p50", "ms"},
	{"csp.parse_ms.p50", "ms"},
	{"core.solve_ms.p50", "ms"},
	{"core.solve_ms.p90", "ms"},
	{"core.decompose_span_ms.p50", "ms"},
	{"core.overshoot_ms.p50", "ms"},
	{"core.overshoot_ms.p90", "ms"},
	{"core.exact_share", "ratio"},
	{"core.nodes_per_req", "nodes/req"},
	{"elim.greedy.node_share", "ratio"},
	{"elim.greedy.win_share", "ratio"},
	{"search.bb-ghw.node_share", "ratio"},
	{"search.bb-ghw.win_share", "ratio"},
	{"htd.hw-detk.node_share", "ratio"},
	{"htd.hw-detk.win_share", "ratio"},
	{"ga.ga-ghw.node_share", "ratio"},
	{"ga.ga-ghw.win_share", "ratio"},
	{"ga.saiga-ghw.node_share", "ratio"},
	{"ga.saiga-ghw.win_share", "ratio"},
	{"setcover.cover_cache_hit_ratio", "ratio"},
	{"obs.events_per_req", "events/req"},
	{"engine.compile_ms.p50", "ms"},
	{"engine.compile_ms.p90", "ms"},
	{"engine.compile_span_ms.p50", "ms"},
	{"engine.plan_rows.mean", "rows"},
	{"engine.max_bag_rows.p90", "rows"},
	{"engine.query_ms.p50", "ms"},
	{"engine.solve_us.p50", "us"},
	{"engine.count_us.p50", "us"},
	{"engine.enumerate_us.p50", "us"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.overhead_req_per_s_pct", "%"},
}

// members maps each default portfolio member to the module that
// implements it.
var members = []struct{ algo, module string }{
	{"greedy", "elim"},
	{"bb-ghw", "search"},
	{"hw-detk", "htd"},
	{"ga-ghw", "ga"},
	{"saiga-ghw", "ga"},
}

// layers collects a traced run's per-layer values, and the reason for each
// metric it could not measure.
type layers struct {
	values  map[string]float64
	dropped map[string]string
}

func (l *layers) set(name string, v float64) { l.values[name] = v }

// pct sets name to the q-quantile of xs, or records why it cannot.
func (l *layers) pct(name string, xs []float64, q float64) {
	if len(xs) == 0 {
		l.dropped[name] = noSamples
		return
	}
	v, err := percentile(xs, q)
	if err != nil {
		l.dropped[name] = err.Error()
		return
	}
	l.values[name] = v
}

// div sets name to num/den, or records that the workload never reached
// the layer.
func (l *layers) div(name string, num, den float64) {
	if den == 0 {
		l.dropped[name] = noSamples
		return
	}
	l.values[name] = num / den
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// perLayer derives the per-layer metrics from a traced window: the
// envelope of every answered request, the /metrics deltas around the
// window, and the in-process spans.
func (m *measured) perLayer(tr *tracer) *layers {
	l := &layers{values: map[string]float64{}, dropped: map[string]string{}}
	var (
		unphased, cache, encode, queue, residual     []float64
		hgParse, cspParse, solve, overshoot, compile []float64
		query, planRows, maxBagRows                  []float64
		exact, answered, nodes, ledgers              float64
		memberNodes, memberWins                      = map[string]float64{}, map[string]float64{}
		totalNodes, coverHits, coverLookups          float64
	)
	for i, s := range m.win.samples {
		v := m.verdicts[i]
		if !v.ok {
			continue
		}
		answered++
		t := &v.t
		if d := v.dec; d != nil {
			hgParse = append(hgParse, ms(t.Parse))
			solve = append(solve, ms(t.Solve))
			if d.Stop == "deadline" {
				overshoot = append(overshoot, ms(t.Solve-int64(deadline)))
			}
			if d.Outcome == "exact" {
				exact++
			}
			nodes += float64(d.Nodes)
			if led := d.Attribution; led != nil {
				ledgers++
				totalNodes += float64(led.TotalNodes)
				memberWins[led.Winner]++
				for _, mb := range led.Members {
					memberNodes[mb.Algo] += float64(mb.Nodes)
					coverHits += float64(mb.CacheHits)
					coverLookups += float64(mb.CacheHits + mb.CacheMisses)
				}
			}
		} else {
			if !v.plan.Cached {
				cspParse = append(cspParse, ms(t.Parse))
				solve = append(solve, ms(t.Solve))
				compile = append(compile, ms(t.Compile))
			}
			query = append(query, ms(t.Query))
			planRows = append(planRows, float64(v.plan.Rows))
			maxBagRows = append(maxBagRows, float64(v.plan.MaxBagRows))
		}
		unphased = append(unphased, ms(t.Total-t.phases()))
		cache = append(cache, ms(t.Cache))
		encode = append(encode, ms(t.Encode))
		queue = append(queue, ms(t.QueueWait))
		residual = append(residual, ms((s.end-s.start)-t.Total))
	}
	// query-hot compiles only during set-up: take its compiles from the
	// traced set-up's warm-up responses.
	if len(compile) == 0 && len(m.wl.csps) > 0 {
		for _, w := range m.warm {
			for _, s := range w.samples {
				if r, ok := decodeQuery(s.body); ok && !r.Plan.Cached {
					compile = append(compile, ms(r.Timings.Compile))
				}
			}
		}
	}

	l.pct("server.unphased_ms.p50", unphased, 0.5)
	l.pct("server.cache_ms.p50", cache, 0.5)
	l.pct("server.encode_ms.p50", encode, 0.5)
	l.pct("server.queue_wait_ms.p90", queue, 0.9)
	l.pct("transport.residual_ms.p50", residual, 0.5)
	l.pct("transport.residual_ms.p90", residual, 0.9)
	l.pct("hypergraph.parse_ms.p50", hgParse, 0.5)
	l.pct("csp.parse_ms.p50", cspParse, 0.5)
	l.pct("core.solve_ms.p50", solve, 0.5)
	l.pct("core.solve_ms.p90", solve, 0.9)
	l.pct("core.overshoot_ms.p50", overshoot, 0.5)
	l.pct("core.overshoot_ms.p90", overshoot, 0.9)
	l.pct("engine.compile_ms.p50", compile, 0.5)
	l.pct("engine.compile_ms.p90", compile, 0.9)
	l.pct("engine.query_ms.p50", query, 0.5)
	l.pct("engine.max_bag_rows.p90", maxBagRows, 0.9)
	if len(planRows) > 0 {
		l.set("engine.plan_rows.mean", mean(planRows))
	}
	if m.wl.csps == nil {
		l.div("core.exact_share", exact, answered)
		l.div("core.nodes_per_req", nodes, answered)
		for _, mb := range members {
			l.div(mb.module+"."+mb.algo+".node_share", memberNodes[mb.algo], totalNodes)
			l.div(mb.module+"."+mb.algo+".win_share", memberWins[mb.algo], ledgers)
		}
		l.div("setcover.cover_cache_hit_ratio", coverHits, coverLookups)
	}

	// /metrics deltas around the window.
	delta := func(series string) float64 { return m.after[series] - m.before[series] }
	attempted := float64(len(m.win.samples))
	if m.wl.csps != nil {
		hits, misses := delta("hypertree_query_plan_cache_hits"), delta("hypertree_query_plan_cache_misses")
		l.div("server.plan_cache_hit_ratio", hits, hits+misses)
		l.div("server.plan_cache_evictions_per_req", delta("hypertree_query_plan_cache_evictions"), attempted)
	}
	events := sumPrefix(m.after, "hypertree_obs_events_total") - sumPrefix(m.before, "hypertree_obs_events_total")
	l.div("obs.events_per_req", events, attempted)

	// In-process spans.
	l.pct("hypergraph.parse_span_ms.p50", tr.durations("hypergraph.ParseHG", time.Millisecond), 0.5)
	l.pct("core.decompose_span_ms.p50", tr.durations("core.Decompose", time.Millisecond), 0.5)
	l.pct("engine.compile_span_ms.p50", tr.durations("engine.CompileGHDBudget", time.Millisecond), 0.5)
	l.pct("engine.solve_us.p50", tr.durations("engine.Cursor.Solve", time.Microsecond), 0.5)
	l.pct("engine.count_us.p50", tr.durations("engine.Cursor.CountExact", time.Microsecond), 0.5)
	l.pct("engine.enumerate_us.p50", tr.durations("engine.Cursor.Enumerate", time.Microsecond), 0.5)
	return l
}

// decodeQuery decodes a /query envelope that carries a plan.
func decodeQuery(body []byte) (*queryResponse, bool) {
	var r queryResponse
	if json.Unmarshal(body, &r) != nil || r.Plan == nil || r.Timings == nil {
		return nil, false
	}
	return &r, true
}
