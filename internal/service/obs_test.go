package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/taskgraph"
)

// tracedEnvelope is the response shape of a traced schedule call: the
// wire Result plus the spliced trace block.
type tracedEnvelope struct {
	Result
	Trace *obs.TraceData `json:"trace"`
}

// depth0Stages extracts the top-level stage names of a trace in order.
func depth0Stages(td *obs.TraceData) []string {
	var out []string
	for _, st := range td.Stages {
		if st.Depth == 0 {
			out = append(out, st.Stage)
		}
	}
	return out
}

// TestTracedRequestStageBreakdown is the tentpole acceptance test: a cold
// traced solve on a disk-backed server returns the ordered stage
// breakdown — decode through marshal — whose durations sum to within
// jitter of the end-to-end latency, under the span ID the response
// header carries.
func TestTracedRequestStageBreakdown(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64, CacheDir: t.TempDir()})
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Trace = true })

	resp, body := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	headerID := resp.Header.Get("X-DTServe-Trace-Id")
	if headerID == "" {
		t.Fatal("no X-DTServe-Trace-Id header")
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil {
		t.Fatalf("no trace block in traced response: %s", body)
	}
	if env.Trace.ID != headerID {
		t.Fatalf("trace id %q does not match header %q", env.Trace.ID, headerID)
	}
	if env.Makespan <= 0 || len(env.Schedule) == 0 {
		t.Fatalf("trace splice damaged the result payload: %+v", env.Result)
	}

	want := []string{"decode", "canonicalize", "mem_tier", "disk_tier", "materialize", "engine_queue", "solve", "marshal"}
	got := depth0Stages(env.Trace)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cold traced solve stages = %v, want %v", got, want)
	}

	// Stages are ordered by start offset and tile the request: their
	// durations sum to the end-to-end total minus handler glue, which is
	// microseconds — the generous bound only guards against CI jitter.
	var sum int64
	lastStart := int64(-1)
	for _, st := range env.Trace.Stages {
		if st.Depth != 0 {
			continue
		}
		if st.StartNS < lastStart {
			t.Fatalf("stage %s starts at %d, before its predecessor at %d", st.Stage, st.StartNS, lastStart)
		}
		lastStart = st.StartNS
		if st.DurNS < 0 {
			t.Fatalf("stage %s has negative duration %d", st.Stage, st.DurNS)
		}
		sum += st.DurNS
	}
	total := env.Trace.TotalNS
	if sum > total {
		t.Fatalf("stage durations sum to %dns, more than the end-to-end total %dns", sum, total)
	}
	gap := total - sum
	bound := int64(50 * time.Millisecond)
	if half := total / 2; half > bound {
		bound = half
	}
	if gap > bound {
		t.Fatalf("stages account for %dns of %dns — %dns unaccounted, want under %dns", sum, total, gap, bound)
	}

	if env.Trace.Notes["cache"] != "miss" {
		t.Fatalf("trace notes = %v, want cache=miss", env.Trace.Notes)
	}
	if env.Trace.Notes["solver"] != "sa" {
		t.Fatalf("trace notes = %v, want solver=sa", env.Trace.Notes)
	}
	// The /statsz acceptance counters are fed once per solve from the
	// same sums the trace annotates; this server ran exactly one solve.
	st := getStats(t, ts.URL)
	for note, v := range map[string]uint64{"anneal_moves": st.AnnealMoves, "anneal_accepted": st.AnnealAccepted} {
		if got := strconv.FormatUint(v, 10); got != env.Trace.Notes[note] || v == 0 {
			t.Fatalf("/statsz %s = %s, trace note = %q", note, got, env.Trace.Notes[note])
		}
	}
}

// TestTraceNeverCached: the trace block is spliced per response and never
// stored — an untraced call after a traced one serves clean cached bytes,
// and a traced call after a warm-up gets a fresh (short, hit-path) trace.
func TestTraceNeverCached(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	traced := wireRequest(t, "MM", func(r *ScheduleRequest) { r.Trace = true })
	plain := wireRequest(t, "MM", nil)

	if resp, body := post(t, ts.URL+"/v1/schedule", traced); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold traced call: status %d: %s", resp.StatusCode, body)
	}

	resp, body := post(t, ts.URL+"/v1/schedule", plain)
	if tag := resp.Header.Get("X-DTServe-Cache"); tag != "hit" {
		t.Fatalf("second call cache tag = %q, want hit (trace must not split the cache key)", tag)
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("cached body served with a trace block — traced bytes leaked into the cache: %s", body)
	}

	resp, body = post(t, ts.URL+"/v1/schedule", traced)
	if tag := resp.Header.Get("X-DTServe-Cache"); tag != "hit" {
		t.Fatalf("warm traced call cache tag = %q, want hit", tag)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil {
		t.Fatal("warm traced call returned no trace block")
	}
	want := []string{"decode", "canonicalize", "mem_tier"}
	if got := depth0Stages(env.Trace); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("warm hit stages = %v, want %v (a hit never reaches disk or the engine)", got, want)
	}
}

// syncBuffer serializes writes so the slog handler and the test reader
// never race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestTraceIDRoundTripSlog: the span ID on the response header is the
// trace_id of the request's structured log record, and traced requests
// log their stage summary.
func TestTraceIDRoundTripSlog(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		CacheSize: 64,
		Logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	payload := wireRequest(t, "GJ", func(r *ScheduleRequest) { r.Trace = true })
	resp, body := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-DTServe-Trace-Id")

	var rec struct {
		Msg     string `json:"msg"`
		Path    string `json:"path"`
		Status  int    `json:"status"`
		TraceID string `json:"trace_id"`
		Lane    string `json:"lane"`
		Cache   string `json:"cache"`
		Stages  string `json:"stages"`
	}
	found := false
	for _, line := range logBuf.Lines() {
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable slog line %q: %v", line, err)
		}
		if rec.Msg == "request" && rec.TraceID == id {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no request log record with trace_id %q in:\n%s", id, strings.Join(logBuf.Lines(), "\n"))
	}
	if rec.Path != "/v1/schedule" || rec.Status != http.StatusOK {
		t.Fatalf("log record %+v, want path=/v1/schedule status=200", rec)
	}
	if rec.Lane != "interactive" || rec.Cache != "miss" {
		t.Fatalf("log record %+v, want lane=interactive cache=miss", rec)
	}
	for _, stage := range []string{"decode=", "solve=", "marshal="} {
		if !strings.Contains(rec.Stages, stage) {
			t.Fatalf("log stages %q missing %q", rec.Stages, stage)
		}
	}
}

// TestPortfolioTraceMemberStages: a traced portfolio solve exposes every
// raced member as a depth-1 sub-stage with its outcome, exactly one of
// which wins — and the outcomes land in the /statsz member counters.
func TestPortfolioTraceMemberStages(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	payload := wireRequest(t, "NE", func(r *ScheduleRequest) {
		r.Solver = "portfolio"
		r.Trace = true
	})
	resp, body := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil {
		t.Fatal("no trace block")
	}
	members, wins := 0, 0
	for _, st := range env.Trace.Stages {
		if st.Depth != 1 {
			continue
		}
		if !strings.HasPrefix(st.Stage, "portfolio:") {
			t.Fatalf("depth-1 stage %q is not a portfolio member", st.Stage)
		}
		members++
		switch st.Notes["outcome"] {
		case "win":
			wins++
		case "finish", "pruned", "timeout", "cancelled", "error":
		default:
			t.Fatalf("member %s has unknown outcome %q", st.Stage, st.Notes["outcome"])
		}
	}
	if members < 2 {
		t.Fatalf("traced portfolio exposed %d member stages, want at least 2", members)
	}
	if wins != 1 {
		t.Fatalf("%d members marked win, want exactly 1", wins)
	}
	winner := env.Trace.Notes["portfolio_winner"]
	if winner == "" {
		t.Fatalf("trace notes %v missing portfolio_winner", env.Trace.Notes)
	}

	st := getStats(t, ts.URL)
	winKey := winner + "|win"
	if st.MemberOutcomes[winKey] == 0 {
		t.Fatalf("statsz portfolio_members = %v, want a count under %q", st.MemberOutcomes, winKey)
	}
	var total uint64
	for _, n := range st.MemberOutcomes {
		total += n
	}
	if total != uint64(members) {
		t.Fatalf("statsz member outcomes total %d, want %d (one per raced member)", total, members)
	}
}

// promSample is one parsed exposition line.
var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (.+)$`)

// TestMetricsExposition drives a little of every path — cold solve, warm
// hit, traced call, streamed batch, portfolio — then parses /metrics as a
// Prometheus scraper would: every sample belongs to a family with HELP
// and TYPE, histogram buckets are cumulative with well-formed le bounds,
// and the +Inf bucket equals the series count.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64, CacheDir: t.TempDir(), TraceSample: 1})
	payload := wireRequest(t, "FFT", nil)
	for i := 0; i < 2; i++ { // miss then hit
		if resp, body := post(t, ts.URL+"/v1/schedule", payload); resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule: status %d: %s", resp.StatusCode, body)
		}
	}
	if resp, body := post(t, ts.URL+"/v1/schedule",
		wireRequest(t, "NE", func(r *ScheduleRequest) { r.Solver = "portfolio"; r.Trace = true })); resp.StatusCode != http.StatusOK {
		t.Fatalf("portfolio: status %d: %s", resp.StatusCode, body)
	}
	// One streamed batch for the TTFB histogram.
	batch, err := json.Marshal(BatchRequest{Requests: []ScheduleRequest{
		{Graph: mustGraph(t, "MM"), Topo: "hypercube:3", Solver: "hlf"},
		{Graph: mustGraph(t, "GJ"), Topo: "hypercube:3", Solver: "hlf"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule/batch", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	sink.ReadFrom(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", bresp.StatusCode, sink.String())
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	text := buf.String()

	helped := map[string]bool{}
	typed := map[string]string{}
	type series struct {
		buckets []float64 // le bounds in exposition order
		cum     []uint64
		count   uint64
		hasInf  bool
		infVal  uint64
	}
	hists := map[string]*series{} // key: family + non-le labels

	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[0]] = parts[1]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		name, labels, value := m[1], m[3], m[4]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if !helped[family] {
			t.Fatalf("sample %q has no HELP for family %q", line, family)
		}
		if typed[family] == "" {
			t.Fatalf("sample %q has no TYPE for family %q", line, family)
		}
		if typed[family] != "histogram" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("non-numeric value in %q: %v", line, err)
			}
			continue
		}

		// Histogram bookkeeping, keyed by the series' non-le labels.
		var le string
		var rest []string
		for _, l := range strings.Split(labels, ",") {
			if strings.HasPrefix(l, `le="`) {
				le = strings.TrimSuffix(strings.TrimPrefix(l, `le="`), `"`)
			} else if l != "" {
				rest = append(rest, l)
			}
		}
		key := family + "{" + strings.Join(rest, ",") + "}"
		sr := hists[key]
		if sr == nil {
			sr = &series{}
			hists[key] = sr
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if le == "+Inf" {
				sr.hasInf = true
				sr.infVal = v
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("malformed le=%q in %q: %v", le, line, err)
			}
			sr.buckets = append(sr.buckets, bound)
			sr.cum = append(sr.cum, v)
		case strings.HasSuffix(name, "_count"):
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("count value in %q: %v", line, err)
			}
			sr.count = v
		}
	}

	for key, sr := range hists {
		if !sr.hasInf {
			t.Fatalf("histogram series %s has no +Inf bucket", key)
		}
		if sr.infVal != sr.count {
			t.Fatalf("histogram series %s: +Inf bucket %d != count %d", key, sr.infVal, sr.count)
		}
		for i := 1; i < len(sr.cum); i++ {
			if sr.buckets[i] <= sr.buckets[i-1] {
				t.Fatalf("histogram series %s: bounds not ascending at %v", key, sr.buckets)
			}
			if sr.cum[i] < sr.cum[i-1] {
				t.Fatalf("histogram series %s: buckets not cumulative at le=%v (%d < %d)",
					key, sr.buckets[i], sr.cum[i], sr.cum[i-1])
			}
		}
	}

	for _, family := range []string{
		"dtserve_build_info", "dtserve_traces_total",
		"dtserve_solve_duration_seconds", "dtserve_stage_duration_seconds",
		"dtserve_lane_queue_delay_seconds", "dtserve_disk_read_seconds",
		"dtserve_disk_write_seconds", "dtserve_stream_ttfb_seconds",
		"dtserve_portfolio_member_total", "dtserve_solver_outcome_total",
		"dtserve_anneal_moves_total", "dtserve_anneal_accepted_total",
	} {
		if !helped[family] || typed[family] == "" {
			t.Fatalf("family %s missing from the exposition (HELP=%v TYPE=%q)", family, helped[family], typed[family])
		}
	}
	for _, sample := range []string{
		`dtserve_stage_duration_seconds_bucket{stage="solve",`,
		`dtserve_stage_duration_seconds_bucket{stage="decode",`,
		`dtserve_lane_queue_delay_seconds_bucket{lane="interactive",`,
		`dtserve_portfolio_member_total{`,
	} {
		if !strings.Contains(text, sample) {
			t.Fatalf("exposition missing expected series %q", sample)
		}
	}
	if !strings.Contains(text, `version="`) {
		t.Fatal("build info carries no version label")
	}
	// The TTFB histogram saw the streamed batch.
	if sr := hists["dtserve_stream_ttfb_seconds{}"]; sr == nil || sr.count == 0 {
		t.Fatal("streamed batch did not land in dtserve_stream_ttfb_seconds")
	}
	// The acceptance-ratio counters: the FFT miss annealed, so both totals
	// are positive, accepted never exceeds proposed, and /metrics carries
	// exactly the /statsz totals (no traffic ran between the scrapes).
	st := getStats(t, ts.URL)
	if st.AnnealMoves == 0 || st.AnnealAccepted == 0 || st.AnnealAccepted > st.AnnealMoves {
		t.Fatalf("anneal_moves = %d, anneal_accepted = %d; want 0 < accepted <= moves", st.AnnealMoves, st.AnnealAccepted)
	}
	for name, want := range map[string]uint64{
		"dtserve_anneal_moves_total":    st.AnnealMoves,
		"dtserve_anneal_accepted_total": st.AnnealAccepted,
	} {
		if line := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(text, line) {
			t.Fatalf("exposition lacks %q matching /statsz", strings.TrimSpace(line))
		}
	}
}

// TestStatszLawUnderLoad scrapes /statsz and /metrics while traffic is in
// flight: every snapshot must satisfy the conservation law exactly —
// solves + memory hits + disk hits + coalesced == schedule items — since
// item accounting is a single critical section.
func TestStatszLawUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64, TraceSample: 4})
	payloads := [][]byte{
		wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf" }),
		wireRequest(t, "MM", func(r *ScheduleRequest) { r.Solver = "hlf" }),
		wireRequest(t, "GJ", func(r *ScheduleRequest) { r.Solver = "etf" }),
	}

	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, body := post(t, ts.URL+"/v1/schedule", payloads[(c+i)%len(payloads)])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	// Scrape continuously while the load runs.
	scrapes := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := getStats(t, ts.URL)
			if got := st.Solves + st.Cache.Hits + st.Disk.Hits + st.Coalesced; got != st.Items {
				t.Errorf("conservation law broken mid-load: solves %d + mem %d + disk %d + coalesced %d = %d != items %d",
					st.Solves, st.Cache.Hits, st.Disk.Hits, st.Coalesced, got, st.Items)
				return
			}
			scrapes++
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if scrapes == 0 {
		t.Fatal("no scrape completed during the load window")
	}

	st := getStats(t, ts.URL)
	if st.Items != clients*perClient {
		t.Fatalf("items %d, want %d", st.Items, clients*perClient)
	}
	if got := st.Solves + st.Cache.Hits + st.Disk.Hits + st.Coalesced; got != st.Items {
		t.Fatalf("final law: %d != items %d", got, st.Items)
	}
	t.Logf("law held across %d scrapes under load (%d items: %d solves, %d mem, %d coalesced)",
		scrapes, st.Items, st.Solves, st.Cache.Hits, st.Coalesced)
}

// TestStatszPoolShape runs a burst of more jobs than workers, then checks
// the /statsz pool block: exactly the fixed pool's keys, the configured
// size, and — with no traffic in flight — the same scalars /metrics
// exports.
func TestStatszPoolShape(t *testing.T) {
	const workers, burst = 2, 8
	_, ts := newTestServer(t, Config{Workers: workers, CacheSize: 64})
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Seed = int64(i + 1) })
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, body := post(t, ts.URL+"/v1/schedule", payload); resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Pool map[string]json.RawMessage `json:"pool"`
	}
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw.Pool {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"busy", "completed", "lanes", "workers"}; !slices.Equal(keys, want) {
		t.Fatalf("/statsz pool keys = %v, want %v", keys, want)
	}
	scalar := func(key string) int64 {
		v, err := strconv.ParseInt(string(raw.Pool[key]), 10, 64)
		if err != nil {
			t.Fatalf("pool.%s = %s: %v", key, raw.Pool[key], err)
		}
		return v
	}
	if got := scalar("workers"); got != workers {
		t.Fatalf("pool.workers = %d, want %d", got, workers)
	}
	if got := scalar("completed"); got < burst {
		t.Fatalf("pool.completed = %d, want >= %d", got, burst)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for family, key := range map[string]string{
		"dtserve_pool_workers":         "workers",
		"dtserve_pool_busy":            "busy",
		"dtserve_pool_completed_total": "completed",
	} {
		if line := fmt.Sprintf("\n%s %d\n", family, scalar(key)); !strings.Contains(buf.String(), line) {
			t.Errorf("exposition lacks %q matching /statsz pool.%s", strings.TrimSpace(line), key)
		}
	}
}

// TestDebugRequestsRing: /debug/requests serves the retained traces, most
// recent first, with the slowest list sorted by total duration.
func TestDebugRequestsRing(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64, TraceSample: 1, TraceRecent: 4, TraceSlowest: 2})
	payload := wireRequest(t, "MM", func(r *ScheduleRequest) { r.Solver = "hlf" })
	var ids []string
	for i := 0; i < 6; i++ {
		resp, _ := post(t, ts.URL+"/v1/schedule", payload)
		ids = append(ids, resp.Header.Get("X-DTServe-Trace-Id"))
	}

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring obs.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	if ring.Total < 6 {
		t.Fatalf("ring total %d, want at least the 6 traced requests", ring.Total)
	}
	if len(ring.Recent) != 4 {
		t.Fatalf("ring keeps %d recent traces, want 4", len(ring.Recent))
	}
	if ring.Recent[0].ID != ids[len(ids)-1] {
		t.Fatalf("most recent trace is %q, want the last request %q", ring.Recent[0].ID, ids[len(ids)-1])
	}
	if len(ring.Slowest) != 2 {
		t.Fatalf("ring keeps %d slowest traces, want 2", len(ring.Slowest))
	}
	if ring.Slowest[0].TotalNS < ring.Slowest[1].TotalNS {
		t.Fatal("slowest traces not sorted by total duration")
	}
}

func mustGraph(t *testing.T, program string) *taskgraph.Graph {
	t.Helper()
	g, err := cliutil.BuildProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStatszMetricsParity serves a little of every path, then checks that
// /statsz and /metrics render one snapshot: every numeric or bool /statsz
// leaf, map entries included, is exactly one /metrics sample of equal
// value (an _ns leaf in seconds), and every family other than the
// histograms and the build info maps back to a leaf.
func TestStatszMetricsParity(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: 64, CacheDir: t.TempDir(), TraceSample: 1,
		QueueDelayTarget: 25 * time.Millisecond})
	for _, payload := range [][]byte{
		wireRequest(t, "FFT", nil), wireRequest(t, "FFT", nil), wireRequest(t, "FFT", nil), // miss, hit, alias hit
		wireRequest(t, "NE", func(r *ScheduleRequest) { r.Solver = "portfolio" }),
	} {
		if resp, body := post(t, ts.URL+"/v1/schedule", payload); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	// The handlers are called directly, bypassing the request log
	// around them.
	scrape := func(h http.HandlerFunc) string {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		return rec.Body.String()
	}
	statsz, metrics := stableScrape(t, func() string { return scrape(srv.handleStatsz) },
		func() string { return scrape(srv.handleMetrics) })
	checkStatszMetrics(t, "dtserve", statsz, metrics, func(path []string) [][2]string {
		switch {
		case path[0] == "by_solver":
			return [][2]string{{"solves_by_solver", `solver=` + strconv.Quote(path[1])},
				{"solver_outcome", `solver=` + strconv.Quote(path[1]) + `,outcome="ok"`}}
		case path[0] == "solve_errors":
			return [][2]string{{"solver_outcome", `solver=` + strconv.Quote(path[1]) + `,outcome="error"`}}
		case path[0] == "portfolio_members":
			member, outcome, _ := strings.Cut(path[1], "|")
			return [][2]string{{"portfolio_member", `member=` + strconv.Quote(member) + `,outcome=` + strconv.Quote(outcome)}}
		case len(path) == 4 && path[0] == "pool" && path[1] == "lanes":
			return [][2]string{{"lane_" + path[3], `lane=` + strconv.Quote(path[2])}}
		}
		return [][2]string{{strings.Join(path, "_"), ""}}
	})
}

// A scrape is not an API call: back-to-back /statsz scrapes through
// Handler(), with a /metrics scrape between them, agree on requests, and
// a schedule call still moves it by one.
func TestScrapesDoNotCountAsRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{CacheSize: 8})
	h := srv.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	requests := func() uint64 {
		var st Stats
		if err := json.Unmarshal(serve(http.MethodGet, "/statsz", nil).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Requests
	}
	serve(http.MethodPost, "/v1/schedule", wireRequest(t, "FFT", nil))
	first := requests()
	serve(http.MethodGet, "/metrics", nil)
	if second := requests(); second != first || first != 1 {
		t.Fatalf("requests = %d then %d across scrapes, want 1 both times", first, second)
	}
	serve(http.MethodPost, "/v1/schedule", wireRequest(t, "FFT", nil))
	if got := requests(); got != 2 {
		t.Fatalf("requests = %d after a second schedule call, want 2", got)
	}
}

// stableScrape takes a /statsz and a /metrics body between two equal
// /statsz bodies, so both render the same counters even if a straggling
// portfolio member or worker is still settling.
func stableScrape(t *testing.T, statsz, metrics func() string) (string, string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		before := statsz()
		m := metrics()
		if statsz() == before {
			return before, m
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("/statsz never held still across a /metrics scrape")
	return "", ""
}

// checkStatszMetrics holds a /statsz body and a /metrics body to each
// other. series names, for a leaf's JSON path (map keys included), the
// family name without prefix or _total and the labels of the samples it
// must appear as.
func checkStatszMetrics(t *testing.T, prefix, statsz, metrics string, series func(path []string) [][2]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if _, dup := samples[line[:i]]; dup || err != nil {
			t.Fatalf("sample %q is repeated or unparseable (%v)", line, err)
		}
		samples[line[:i]] = v
	}

	var root any
	dec := json.NewDecoder(strings.NewReader(statsz))
	dec.UseNumber()
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	claimed := map[string]bool{}
	leaves := 0
	var visit func(path []string, v any)
	visit = func(path []string, v any) {
		var want float64
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				visit(append(slices.Clip(path), k), e)
			}
			return
		case bool:
			if v {
				want = 1
			}
		case json.Number:
			f, err := v.Float64()
			if err != nil {
				t.Fatal(err)
			}
			want = f
		default:
			t.Fatalf("/statsz leaf %v is %T", path, v)
		}
		leaves++
		if strings.HasSuffix(path[len(path)-1], "_ns") {
			want /= 1e9
		}
		for _, s := range series(path) {
			name := prefix + "_" + s[0]
			if base, ok := strings.CutSuffix(name, "_ns"); ok {
				name = base + "_seconds"
			}
			labels := ""
			if s[1] != "" {
				labels = "{" + s[1] + "}"
			}
			var found []string
			for _, key := range []string{name + labels, name + "_total" + labels} {
				if _, ok := samples[key]; ok {
					found = append(found, key)
				}
			}
			if len(found) != 1 {
				t.Errorf("/statsz %v: /metrics carries %d of %s[_total]%s, want 1", path, len(found), name, labels)
				continue
			}
			if got := samples[found[0]]; got != want {
				t.Errorf("/statsz %v = %v, but /metrics %s = %v", path, want, found[0], got)
			}
			claimed[found[0]] = true
		}
	}
	visit(nil, root)

	familyOf := func(key string) string {
		name, _, _ := strings.Cut(key, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	fed := map[string]bool{}
	for key := range samples {
		family := familyOf(key)
		if types[family] == "histogram" || strings.HasSuffix(family, "_build_info") {
			continue
		}
		if !claimed[key] {
			t.Errorf("/metrics sample %s maps to no /statsz leaf", key)
		}
		fed[family] = true
	}
	for family, kind := range types {
		if kind != "histogram" && !strings.HasSuffix(family, "_build_info") && !fed[family] {
			t.Errorf("/metrics family %s has no sample from a /statsz leaf", family)
		}
	}
	t.Logf("%d /statsz leaves, %d /metrics families", leaves, len(types))
}
