package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines returns runtime.NumGoroutine once it has held still for
// a few polls (or after a second at most), so goroutines of earlier tests
// that are still winding down do not count, while a leaked one, which never
// exits, does.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(time.Second)
	for still := 0; still < 5 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// leakRig is a daemon on httptest whose handler counts the requests in
// progress, with a client of its own, so that no idle connection of another
// test's client counts as a goroutine of this one.
type leakRig struct {
	srv    *Server
	ts     *httptest.Server
	client *http.Client
	live   atomic.Int64 // requests in progress
	before int          // settled goroutines before the rig started
	closed sync.Once
}

func newLeakRig(cfg ServerConfig) *leakRig {
	r := &leakRig{before: settledGoroutines(), srv: NewServer(cfg), client: &http.Client{Transport: &http.Transport{}}}
	h := r.srv.Handler()
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.live.Add(1)
		defer r.live.Add(-1)
		h.ServeHTTP(w, req)
	}))
	return r
}

func (r *leakRig) submit(t *testing.T, body string) JobStatus {
	t.Helper()
	resp, err := r.client.Post(r.ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	return st
}

func (r *leakRig) cancel(t *testing.T, id string) {
	t.Helper()
	resp, err := r.client.Post(r.ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// waitState waits for a job to reach state.
func (r *leakRig) waitState(t *testing.T, id, state string) {
	t.Helper()
	js, found := r.srv.Job(id)
	if !found {
		t.Fatalf("no job %s", id)
	}
	for deadline := time.Now().Add(30 * time.Second); js.stateName() != state; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached state %q", id, state)
		}
	}
}

// stream opens a job's events stream and returns its lines as they arrive;
// the channel closes when the stream ends.
func (r *leakRig) stream(t *testing.T, id string) (*http.Response, <-chan Event) {
	t.Helper()
	resp, err := r.client.Get(r.ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every line a stream sends while its test is not reading
	// (progress lines every 10 ms for well under 10 s), so the reader
	// returns as soon as the body closes and is never counted as leaked.
	lines := make(chan Event, 1024)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				return
			}
			lines <- ev
		}
	}()
	return resp, lines
}

// next returns a stream's next line.
func next(t *testing.T, lines <-chan Event) (Event, bool) {
	t.Helper()
	select {
	case ev, ok := <-lines:
		return ev, ok
	case <-time.After(30 * time.Second):
		t.Fatal("events stream stalled")
		return Event{}, false
	}
}

// wantCanceledEnd drains a stream and requires it to end, within a
// deadline, with a canceled result line.
func wantCanceledEnd(t *testing.T, id string, lines <-chan Event) {
	t.Helper()
	var last Event
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-lines:
			if ok {
				last = ev
				continue
			}
		case <-timeout:
			t.Fatalf("stream of %s never ended; last line %+v", id, last)
		}
		break
	}
	if last.Type != "result" || last.State != StateCanceled || last.Result == nil || last.Result.Verdict != VerdictCanceled {
		t.Fatalf("stream of %s ended with %+v", id, last)
	}
}

// closeServer runs Server.Close once, within a deadline.
func (r *leakRig) closeServer(t *testing.T) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		r.closed.Do(r.srv.Close)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Server.Close hung")
	}
}

// close shuts the rig down, Server.Close first, and requires every
// goroutine it started to be gone.
func (r *leakRig) close(t *testing.T) {
	t.Helper()
	r.closeServer(t)
	r.ts.Close()
	r.client.CloseIdleConnections()
	if after := settledGoroutines(); after > r.before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines %d -> %d after shutdown:\n%s", r.before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestServiceSmokeLeakStreamDisconnect: a client that leaves an events
// stream of a running job ends its handler while the job runs on, and the
// job, canceled afterwards, leaves nothing behind.
func TestServiceSmokeLeakStreamDisconnect(t *testing.T) {
	r := newLeakRig(ServerConfig{Runners: 1, StreamInterval: 10 * time.Millisecond})
	running := r.submit(t, fmt.Sprintf(slowJob, 21))
	r.waitState(t, running.ID, StateRunning)

	resp, lines := r.stream(t, running.ID)
	if ev, _ := next(t, lines); ev.Type != "status" {
		t.Fatalf("stream opened with %+v", ev)
	}
	if ev, _ := next(t, lines); ev.Type != "progress" {
		t.Fatalf("second line %+v", ev)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(10 * time.Second); r.live.Load() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("events handler still running after its client left")
		}
	}
	if js, _ := r.srv.Job(running.ID); js.stateName() != StateRunning {
		t.Fatalf("job %s is %s, want it still running", running.ID, js.stateName())
	}

	r.cancel(t, running.ID)
	r.waitState(t, running.ID, StateCanceled)
	r.close(t)
}

// TestServiceSmokeLeakCancel: a running and a queued job, each watched by an
// events stream, are canceled; both streams end with the canceled record,
// and nothing is left behind.
func TestServiceSmokeLeakCancel(t *testing.T) {
	r := newLeakRig(ServerConfig{Runners: 1, StreamInterval: 10 * time.Millisecond})
	running := r.submit(t, fmt.Sprintf(slowJob, 22))
	r.waitState(t, running.ID, StateRunning)
	queued := r.submit(t, fmt.Sprintf(slowJob, 23))

	_, runningLines := r.stream(t, running.ID)
	_, queuedLines := r.stream(t, queued.ID)
	if ev, _ := next(t, queuedLines); ev.Type != "status" || ev.State != StateQueued {
		t.Fatalf("queued job's stream opened with %+v", ev)
	}
	r.cancel(t, queued.ID)
	r.cancel(t, running.ID)
	wantCanceledEnd(t, running.ID, runningLines)
	wantCanceledEnd(t, queued.ID, queuedLines)
	r.close(t)
}

// TestServiceSmokeLeakClose: Server.Close with a running leader, a follower
// joined to its flight and eight queued jobs, the leader and every queued
// job watched by an events stream: Close cancels them all, every stream ends
// with the canceled record, and nothing is left behind. A runner that
// returns from a canceled job may still pop a queued one before it sees the
// stop, so eight queued jobs make it all but certain that some are still
// queued when the runners stop.
func TestServiceSmokeLeakClose(t *testing.T) {
	r := newLeakRig(ServerConfig{Runners: 2, StreamInterval: 10 * time.Millisecond})
	leader := r.submit(t, fmt.Sprintf(slowJob, 24))
	r.waitState(t, leader.ID, StateRunning)
	r.submit(t, fmt.Sprintf(slowJob, 24))
	for deadline := time.Now().Add(10 * time.Second); r.srv.Stats().Cache.Joins != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second submission never joined the leader's flight")
		}
	}
	_, leaderLines := r.stream(t, leader.ID)
	queued := map[string]<-chan Event{}
	for seed := 25; seed < 33; seed++ {
		id := r.submit(t, fmt.Sprintf(slowJob, seed)).ID
		_, lines := r.stream(t, id)
		if ev, _ := next(t, lines); ev.Type != "status" || ev.State != StateQueued {
			t.Fatalf("queued job's stream opened with %+v", ev)
		}
		queued[id] = lines
	}
	r.closeServer(t)
	wantCanceledEnd(t, leader.ID, leaderLines)
	for id, lines := range queued {
		wantCanceledEnd(t, id, lines)
	}
	r.close(t)
}
