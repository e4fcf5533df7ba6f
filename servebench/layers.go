package main

import "strings"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// baseline is what the traced run measures outside the span file: the
// untraced closed loop, and the untraced single connection the traced
// one is compared against.
type baseline struct {
	throughput    float64 // closed loop: successful requests per second
	p90MS         float64 // closed loop: round-trip p90
	p99MS         float64 // closed loop: round-trip p99
	p50US         float64 // single connection: round-trip p50
	allocBytes    float64 // per request
	gcCyclesPerK  float64 // per thousand requests
	gcCPUMSPerReq float64
	errorRate     float64 // failed ÷ attempted, both phases
	sloFailed     int     // large-spec specs that failed at setup
}

// perLayer derives the per-layer metrics from the traced run's spans.
// A layer the workload never calls reports 0.
func perLayer(spans []span, b baseline) map[string]metric {
	byID := make(map[int64]span, len(spans))
	byName := make(map[string][]span)
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	isHTTP := func(s span) bool { return strings.HasPrefix(s.Name, "http.") }
	var https []span
	for _, s := range spans {
		if isHTTP(s) {
			https = append(https, s)
		}
	}
	n := float64(len(https))
	p50 := func(ss []span, scale float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.dur()) / scale
		}
		return median(xs)
	}
	us := func(name string) float64 { return p50(byName[name], 1e3) }
	sumAttr := func(ss []span, key string) float64 {
		var t float64
		for _, s := range ss {
			t += s.Attrs[key]
		}
		return t
	}

	// Round trip minus the in-process time of the same request.
	var overhead []float64
	for _, h := range https {
		inproc := int64(0)
		for _, s := range children[h.Parent] {
			switch s.Name {
			case "workflow.decode", "service.configure_hit", "service.configure_miss", "service.get":
				inproc += s.dur()
			}
		}
		overhead = append(overhead, float64(h.dur()-inproc)/1e3)
	}

	// Store calls made by the served request, not by the replays.
	var gets, puts []span
	for _, s := range byName["store.get"] {
		if isHTTP(byID[s.Parent]) {
			gets = append(gets, s)
		}
	}
	for _, s := range byName["store.put"] {
		if isHTTP(byID[s.Parent]) {
			puts = append(puts, s)
		}
	}

	searches := byName["search.search"]
	var self, canonBytes []float64
	for _, s := range searches {
		self = append(self, float64(selfTime(s, children[s.ID]))/1e3)
	}
	for _, s := range byName["workflow.canonical"] {
		canonBytes = append(canonBytes, s.Attrs["bytes"])
	}
	evals := sumAttr(searches, "evaluate_calls")
	invocations := sumAttr(searches, "invocations")
	hits, misses := sumAttr(https, "hits"), sumAttr(https, "misses")
	postHitUS, getUS := us("http.post_hit"), us("http.get")
	traced := p50(https, 1e3)

	return map[string]metric{
		"http.post_hit_us":             {postHitUS, "us"},
		"http.post_miss_us":            {us("http.post_miss"), "us"},
		"http.get_us":                  {getUS, "us"},
		"http.post_get_ratio":          {ratio(postHitUS, getUS), "ratio"},
		"http.overhead_us":             {median(overhead), "us"},
		"workflow.decode_us":           {us("workflow.decode"), "us"},
		"workflow.validate_us":         {us("workflow.validate"), "us"},
		"workflow.canonical_us":        {us("workflow.canonical"), "us"},
		"workflow.canonical_bytes":     {median(canonBytes), "B"},
		"workflow.sha256_us":           {us("workflow.sha256"), "us"},
		"workflow.compile_us":          {us("workflow.compile"), "us"},
		"workflow.evaluate_us":         {us("workflow.evaluate"), "us"},
		"workflow.evaluate_calls":      {ratio(evals, float64(len(searches))), "count"},
		"service.configure_hit_us":     {us("service.configure_hit"), "us"},
		"service.configure_miss_us":    {us("service.configure_miss"), "us"},
		"service.get_ns":               {p50(byName["service.get"], 1), "ns"},
		"service.marshal_us":           {us("service.marshal"), "us"},
		"service.searches_per_req":     {ratio(sumAttr(https, "searches"), n), "count/req"},
		"service.hit_ratio":            {ratio(hits, hits+misses), "ratio"},
		"service.evictions_per_req":    {ratio(sumAttr(https, "evictions"), n), "count/req"},
		"store.get_ns":                 {p50(gets, 1), "ns"},
		"store.gets_per_req":           {ratio(float64(len(gets)), n), "count/req"},
		"store.get_hit_ratio":          {ratio(sumAttr(gets, "hit"), float64(len(gets))), "ratio"},
		"store.put_ns":                 {p50(puts, 1), "ns"},
		"store.puts_per_req":           {ratio(float64(len(puts)), n), "count/req"},
		"search.search_us":             {us("search.search"), "us"},
		"search.samples":               {ratio(sumAttr(https, "samples"), n), "count"},
		"search.sim_runtime_ms":        {ratio(sumAttr(https, "sim_runtime_ms"), n), "ms"},
		"search.sim_cost":              {ratio(sumAttr(https, "sim_cost"), n), "cost"},
		"search.slo_compliant_ratio":   {ratio(sumAttr(https, "slo_compliant"), n), "ratio"},
		"core.self_us":                 {median(self), "us"},
		"simfaas.invocations_per_eval": {ratio(invocations, evals), "count"},
		"simfaas.cold_start_ratio":     {ratio(sumAttr(searches, "cold_starts"), invocations), "ratio"},
		"runtime.alloc_bytes_per_req":  {b.allocBytes, "B/req"},
		"runtime.gc_cycles_per_kreq":   {b.gcCyclesPerK, "count/kreq"},
		"runtime.gc_cpu_ms_per_req":    {b.gcCPUMSPerReq, "ms/req"},
		"trace.requests":               {n, "count"},
		"trace.untraced_p50_us":        {b.p50US, "us"},
		"trace.overhead_ratio":         {ratio(traced, b.p50US), "ratio"},
		"client.error_rate":            {b.errorRate, "ratio"},
		"client.throughput_rps":        {b.throughput, "req/s"},
		"client.latency_p90_ms":        {b.p90MS, "ms"},
		"client.latency_p99_ms":        {b.p99MS, "ms"},
		"large.slo_failed_specs":       {float64(b.sloFailed), "count"},
	}
}
