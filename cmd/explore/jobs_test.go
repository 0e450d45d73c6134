package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mpcn/internal/service"
)

// requestOf rebuilds the submission a Result record names: its spec, its
// canonical "name=value" params, its engine and its seed.
func requestOf(r service.Result) service.Request {
	params := map[string]string{}
	for _, kv := range strings.Fields(r.Params) {
		name, v, _ := strings.Cut(kv, "=")
		params[name] = v
	}
	return service.Request{Spec: r.Spec, Params: params, Engine: r.Engine, Seed: r.Seed}
}

// TestAllSpecsRecordsReproduce: every -allspecs record names the job that
// produced it. Each record's own spec, params, engine and seed, prepared and
// run like a daemon submission, give the same record (wall clock aside) —
// so the step bound -allspecs puts on unbounded specs is in the record's
// params, not applied behind them.
func TestAllSpecsRecordsReproduce(t *testing.T) {
	var out bytes.Buffer
	if code := run(strings.Fields("-sample pct -allspecs -samples 50 -seed 1 -workers 1 -json"), &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	records := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var rec service.Result
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad -json record %q: %v", sc.Text(), err)
		}
		records++
		j, err := service.Prepare(requestOf(rec))
		if err != nil {
			t.Fatalf("%s %s: record does not prepare: %v", rec.Spec, rec.Params, err)
		}
		est, sst, err := service.Run(context.Background(), j, nil, nil)
		if got := normalize(service.NewResult(j, est, sst, err)); !reflect.DeepEqual(got, normalize(rec)) {
			t.Errorf("%s %s: rerun of the record's job differs:\nrecord: %+v %+v\nrerun:  %+v %+v",
				rec.Spec, rec.Params, rec, rec.Sample, got, got.Sample)
		}
	}
	if records == 0 {
		t.Fatal("-allspecs -json printed no records")
	}
}
