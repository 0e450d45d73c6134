// The -json contract: cmd/explore's NDJSON records are the exploredd
// daemon's Result encoding, so a job submitted over the wire and the
// equivalent CLI invocation produce identical records (elapsed wall clock
// aside) — the parity the ISSUE's service smoke pins down.

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpcn/internal/explore/spec"
	"mpcn/internal/service"
)

// cliResult runs the CLI with -json and decodes its single NDJSON record.
func cliResult(t *testing.T, args string, wantCode int) service.Result {
	t.Helper()
	var out bytes.Buffer
	if code := run(strings.Fields(args), &out); code != wantCode {
		t.Fatalf("exit code %d, want %d\n%s", code, wantCode, out.String())
	}
	var r service.Result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("bad -json record %q: %v", out.String(), err)
	}
	return r
}

// daemonResult submits a job to an in-process service and polls its record.
func daemonResult(t *testing.T, base, body string) service.Result {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur service.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.Result != nil {
			return *cur.Result
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", st.ID)
	return service.Result{}
}

// normalize zeroes the only legitimately divergent field, the wall clock.
func normalize(r service.Result) service.Result {
	if r.Explore != nil {
		e := *r.Explore
		e.ElapsedMS = 0
		r.Explore = &e
	}
	if r.Sample != nil {
		s := *r.Sample
		s.ElapsedMS = 0
		r.Sample = &s
	}
	return r
}

// TestServiceSmokeJSONParity: the CLI under -json and the daemon produce the
// identical record for the same job — including the byte-identical replay
// script of a violating cell under the deterministic sequential engine.
func TestServiceSmokeJSONParity(t *testing.T) {
	srv := service.NewServer(service.ServerConfig{Runners: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The violating regular-register litmus: CLI -workers 1 ↔ daemon workers 1.
	cli := cliResult(t, "-object registers -n 2 -set writes=1 -set readers=1 -set backend=regular -workers 1 -json", 1)
	daemon := daemonResult(t, ts.URL,
		`{"spec": "registers", "params": {"n": "2", "writes": "1", "readers": "1", "backend": "regular"}, "engine": {"workers": 1}}`)
	if cli.Verdict != service.VerdictViolation || daemon.Verdict != service.VerdictViolation {
		t.Fatalf("verdicts: cli=%s daemon=%s", cli.Verdict, daemon.Verdict)
	}
	if cli.Violation == nil || daemon.Violation == nil ||
		!reflect.DeepEqual(cli.Violation.Script, daemon.Violation.Script) {
		t.Fatalf("replay scripts diverge:\ncli:    %+v\ndaemon: %+v", cli.Violation, daemon.Violation)
	}
	if !reflect.DeepEqual(normalize(cli), normalize(daemon)) {
		t.Fatalf("records diverge:\ncli:    %+v\ndaemon: %+v", normalize(cli), normalize(daemon))
	}

	// A seeded sampling cell: same stream, same counters, same record.
	scli := cliResult(t, "-object bg -sample pct -samples 200 -seed 7 -workers 1 -json", 0)
	sdaemon := daemonResult(t, ts.URL,
		`{"spec": "bg", "engine": {"mode": "sample", "strategy": "pct", "samples": 200, "workers": 1}, "seed": 7}`)
	if scli.Verdict != service.VerdictSampled {
		t.Fatalf("sampling verdict: %s", scli.Verdict)
	}
	if !reflect.DeepEqual(normalize(scli), normalize(sdaemon)) {
		t.Fatalf("sampled records diverge:\ncli:    %+v\ndaemon: %+v", normalize(scli), normalize(sdaemon))
	}
}

// TestListJSON: -list -json is the daemon's GET /specs encoding.
func TestListJSON(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list", "-json"}, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var infos []spec.Info
	if err := json.Unmarshal(out.Bytes(), &infos); err != nil {
		t.Fatalf("bad -list -json: %v", err)
	}
	if len(infos) != len(spec.All()) {
		t.Fatalf("-list -json served %d specs, registry holds %d", len(infos), len(spec.All()))
	}
	served, _ := json.Marshal(spec.DescribeAll())
	cli, _ := json.Marshal(infos)
	if !bytes.Equal(served, cli) {
		t.Fatal("-list -json diverges from spec.DescribeAll")
	}
}

// TestJSONRejectsCompare: -compare is a human-readable mode; under -json it
// is rejected instead of silently dropped.
func TestJSONRejectsCompare(t *testing.T) {
	var out bytes.Buffer
	if code := run(strings.Fields("-object safe -n 2 -compare -json"), &out); code == 0 {
		t.Fatal("-json -compare accepted")
	}
}
