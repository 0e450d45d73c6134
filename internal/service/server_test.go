package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcn/internal/explore/spec"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func submit(t *testing.T, base, body string) JobStatus {
	t.Helper()
	resp, payload := postJSON(t, base+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, payload)
	}
	var st JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/jobs/"+id, &st)
		if st.Result != nil {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// pollState waits for a job to report the wanted state.
func pollState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/jobs/"+id, &st)
		if st.State == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}

// TestServiceSmokeHTTP: the end-to-end daemon core over httptest — spec
// catalog, a violating exhaustive job with its replay artifact, the cache
// answering the identical resubmission, the NDJSON events stream, and typed
// rejections.
func TestServiceSmokeHTTP(t *testing.T) {
	srv := NewServer(ServerConfig{Runners: 2, StreamInterval: 10 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Liveness and the spec catalog.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var infos []spec.Info
	getJSON(t, ts.URL+"/specs", &infos)
	if len(infos) != len(spec.All()) {
		t.Fatalf("/specs served %d specs, registry holds %d", len(infos), len(spec.All()))
	}
	byName := map[string]spec.Info{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	reg, ok := byName["registers"]
	if !ok {
		t.Fatal("/specs omits registers")
	}
	var backend *spec.ParamInfo
	for i := range reg.Params {
		if reg.Params[i].Name == "backend" {
			backend = &reg.Params[i]
		}
	}
	if backend == nil || !reflect.DeepEqual(backend.Values, []string{"atomic", "regular", "tso"}) {
		t.Fatalf("registers backend domain: %+v", backend)
	}
	if bg := byName["bg"]; !bg.Capabilities.Unbounded || bg.Sampling.Budget != 1500 {
		t.Fatalf("bg projection: %+v", bg)
	}

	// A deterministically violating cell: the regular-register monotonicity
	// litmus under the sequential engine (workers 1).
	body := `{"spec": "registers", "params": {"n": "2", "writes": "1", "readers": "1", "backend": "regular"}, "engine": {"workers": 1}}`
	st := submit(t, ts.URL, body)
	done := pollDone(t, ts.URL, st.ID)
	if done.Cached || done.Result.Verdict != VerdictViolation {
		t.Fatalf("first run: cached=%v verdict=%+v", done.Cached, done.Result)
	}
	v := done.Result.Violation
	if v == nil || len(v.Script) == 0 || !strings.Contains(v.Error, "non-monotonic") {
		t.Fatalf("violation artifact: %+v", v)
	}

	// The identical submission — defaults spelled differently — is answered
	// from the cache with the byte-identical record.
	again := submit(t, ts.URL, `{"spec": "registers", "engine": {"workers": 4}, "params": {"backend": "regular", "readers": "1", "n": "2", "writes": "1", "crashes": "0"}}`)
	if again.Key != done.Key {
		t.Fatalf("canonical keys diverge: %s vs %s", again.Key, done.Key)
	}
	redone := pollDone(t, ts.URL, again.ID)
	if !redone.Cached {
		t.Fatal("identical resubmission re-ran the engine")
	}
	if !reflect.DeepEqual(redone.Result, done.Result) {
		t.Fatalf("cached record diverges:\n%+v\n%+v", redone.Result, done.Result)
	}
	var stats StatsRecord
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Cache.Hits < 1 || stats.Cache.Misses < 1 {
		t.Fatalf("cache counters: %+v", stats.Cache)
	}
	if stats.Pool.Spawned == 0 {
		t.Fatalf("pool counters: %+v", stats.Pool)
	}

	// The events stream of a finished job: a status line, then the terminal
	// result line.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 || events[0].Type != "status" || events[len(events)-1].Type != "result" {
		t.Fatalf("event stream shape: %+v", events)
	}
	if r := events[len(events)-1].Result; r == nil || r.Verdict != VerdictViolation {
		t.Fatalf("terminal event: %+v", events[len(events)-1])
	}

	// Typed rejections: parameter-domain violations carry the declared
	// domain; unknown fields and jobs are structured errors too.
	resp2, payload := postJSON(t, ts.URL+"/jobs", `{"spec": "registers", "params": {"backend": "bogus"}}`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad param status %d: %s", resp2.StatusCode, payload)
	}
	var eb ErrorBody
	if err := json.Unmarshal(payload, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "param" || eb.Param == nil || eb.Param.ValueName != "bogus" ||
		eb.Param.Decl == nil || !reflect.DeepEqual(eb.Param.Decl.Values, []string{"atomic", "regular", "tso"}) {
		t.Fatalf("param rejection body: %s", payload)
	}
	resp3, payload := postJSON(t, ts.URL+"/jobs", `{"spec": "safe", "bogusField": 1}`)
	if resp3.StatusCode != http.StatusBadRequest || !bytes.Contains(payload, []byte("bad_request")) {
		t.Fatalf("unknown field: %d %s", resp3.StatusCode, payload)
	}
	if resp := getJSON(t, ts.URL+"/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status %d", resp.StatusCode)
	}
}

// slowJob is a sampling request whose budget far outlives the test: the
// cancellation target.
const slowJob = `{"spec": "registers", "engine": {"mode": "sample", "workers": 1, "samples": 50000000}, "seed": %d}`

// TestServiceSmokeCancel: canceling a running job stops its engine with a
// canceled verdict; canceling a queued job resolves it without ever running;
// neither record enters the cache.
func TestServiceSmokeCancel(t *testing.T) {
	srv := NewServer(ServerConfig{Runners: 1, StreamInterval: 10 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	running := submit(t, ts.URL, fmt.Sprintf(slowJob, 1))
	pollState(t, ts.URL, running.ID, StateRunning)

	// The single runner is busy: this one stays queued.
	queued := submit(t, ts.URL, fmt.Sprintf(slowJob, 2))

	resp, _ := postJSON(t, ts.URL+"/jobs/"+queued.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/jobs/"+running.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	for _, id := range []string{running.ID, queued.ID} {
		st := pollDone(t, ts.URL, id)
		if st.State != StateCanceled || st.Result.Verdict != VerdictCanceled {
			t.Fatalf("job %s: state=%s result=%+v", id, st.State, st.Result)
		}
	}
	// The queued job never ran: its sample counter stayed at zero.
	var queuedSt JobStatus
	getJSON(t, ts.URL+"/jobs/"+queued.ID, &queuedSt)
	if queuedSt.Result.Sample.Samples != 0 {
		t.Fatalf("queued job ran %d samples", queuedSt.Result.Sample.Samples)
	}
	// Cancellations are transient: nothing entered the cache.
	var stats StatsRecord
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Cache.Entries != 0 {
		t.Fatalf("canceled records cached: %+v", stats.Cache)
	}
}

// TestServiceSmokeRateLimit: the per-client token bucket answers 429 with the
// typed body; other clients are unaffected.
func TestServiceSmokeRateLimit(t *testing.T) {
	srv := NewServer(ServerConfig{Runners: 1, RatePerSec: 0.0001, RateBurst: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	send := func(client string) (*http.Response, []byte) {
		req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(`{"spec": "nope"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// The burst token admits the first submission (which then fails
	// validation — admission precedes Prepare); the second is limited.
	if resp, _ := send("a"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first submission status %d", resp.StatusCode)
	}
	resp, payload := send("a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission status %d: %s", resp.StatusCode, payload)
	}
	var eb ErrorBody
	if err := json.Unmarshal(payload, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "rate_limited" {
		t.Fatalf("rate-limit body: %s", payload)
	}
	if resp, _ := send("b"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fresh client status %d", resp.StatusCode)
	}
}

// TestServiceSmokeQueueFull: submissions beyond the queue capacity answer 503
// with the typed body, and the rejected job leaves no residue in the table.
func TestServiceSmokeQueueFull(t *testing.T) {
	srv := NewServer(ServerConfig{Runners: 1, QueueCap: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	running := submit(t, ts.URL, fmt.Sprintf(slowJob, 3))
	pollState(t, ts.URL, running.ID, StateRunning)
	queued := submit(t, ts.URL, fmt.Sprintf(slowJob, 4))

	resp, payload := postJSON(t, ts.URL+"/jobs", fmt.Sprintf(slowJob, 5))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d: %s", resp.StatusCode, payload)
	}
	var eb ErrorBody
	if err := json.Unmarshal(payload, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "queue_full" {
		t.Fatalf("overflow body: %s", payload)
	}
	var jobs []JobStatus
	getJSON(t, ts.URL+"/jobs", &jobs)
	if len(jobs) != 2 {
		t.Fatalf("rejected submission left residue: %d jobs", len(jobs))
	}
	postJSON(t, ts.URL+"/jobs/"+queued.ID+"/cancel", "")
	postJSON(t, ts.URL+"/jobs/"+running.ID+"/cancel", "")
	pollDone(t, ts.URL, running.ID)
	pollDone(t, ts.URL, queued.ID)
}

// TestSubmitConcurrentQueueFull: concurrent submissions against two busy
// runners and a two-slot queue, so that accepted and bounced submissions
// interleave. GET /jobs lists every accepted id exactly once and no
// bounced one: a rejection must not unregister a job accepted after it.
func TestSubmitConcurrentQueueFull(t *testing.T) {
	srv := NewServer(ServerConfig{Runners: 2, QueueCap: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const submitters, each = 8, 500
	quick := `{"spec": "registers", "engine": {"mode": "sample", "workers": 1, "samples": 20}, "seed": %d}`
	var mu sync.Mutex
	accepted := map[string]bool{}
	rejected := 0
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var req Request
				if err := json.Unmarshal(fmt.Appendf(nil, quick, g*each+i+1), &req); err != nil {
					t.Error(err)
					return
				}
				st, err := srv.Submit(req, "c")
				mu.Lock()
				switch {
				case err == nil:
					accepted[st.ID] = true
				case errors.Is(err, ErrQueueFull):
					rejected++
				default:
					t.Errorf("submit: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(accepted) == 0 || rejected == 0 {
		t.Fatalf("no interleaving to check: %d accepted, %d rejected", len(accepted), rejected)
	}
	var jobs []JobStatus
	getJSON(t, ts.URL+"/jobs", &jobs)
	listed := map[string]bool{}
	for _, j := range jobs {
		if !accepted[j.ID] {
			t.Errorf("GET /jobs lists %s, which was not accepted", j.ID)
		}
		if listed[j.ID] {
			t.Errorf("GET /jobs lists %s twice", j.ID)
		}
		listed[j.ID] = true
	}
	for id := range accepted {
		if !listed[id] {
			t.Errorf("accepted job %s missing from GET /jobs", id)
		}
	}
	t.Logf("%d accepted, %d rejected", len(accepted), rejected)
}
