package server

import (
	"net/http"
	"strings"
	"testing"

	"lily"
	"lily/internal/engine"
)

// TestJobOptionsTargetValidation pins the server-boundary contract for
// the target option: accepted spellings resolve, anything else is a
// validation error that names the accepted values (the 400 body the
// HTTP layer sends back), and a non-lily mapper cannot carry a LUT
// target because only the lily covering engine has a cut backend.
func TestJobOptionsTargetValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    JobOptions
		want    lily.TechnologyTarget
		wantErr string
	}{
		{name: "empty defaults to asic", opts: JobOptions{}, want: lily.TargetASIC},
		{name: "explicit asic", opts: JobOptions{Target: "asic"}, want: lily.TargetASIC},
		{name: "lut4", opts: JobOptions{Target: "lut4"}, want: lily.TargetLUT4},
		{name: "lut6", opts: JobOptions{Target: "lut6"}, want: lily.TargetLUT6},
		{name: "unknown value", opts: JobOptions{Target: "lut5"},
			wantErr: `unknown target "lut5" (want "asic", "lut4", or "lut6")`},
		{name: "case sensitive", opts: JobOptions{Target: "LUT4"},
			wantErr: `unknown target "LUT4" (want "asic", "lut4", or "lut6")`},
		{name: "mis mapper rejects lut4", opts: JobOptions{Mapper: "mis", Target: "lut4"},
			wantErr: `target "lut4" requires the lily mapper`},
		{name: "mis mapper accepts asic", opts: JobOptions{Mapper: "mis", Target: "asic"},
			want: lily.TargetASIC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt, err := tc.opts.ToFlowOptions()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("ToFlowOptions(%+v) = %+v, want error %q", tc.opts, opt, tc.wantErr)
				}
				if err.Error() != tc.wantErr {
					t.Fatalf("error = %q, want %q", err.Error(), tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ToFlowOptions(%+v): %v", tc.opts, err)
			}
			if opt.Target != tc.want {
				t.Fatalf("Target = %v, want %v", opt.Target, tc.want)
			}
		})
	}
}

// TestSubmitRejectsUnknownTarget covers the HTTP round trip: a bad
// target is a 400 whose body lists the accepted values.
func TestSubmitRejectsUnknownTarget(t *testing.T) {
	ts, _ := newTestServer(t)

	for _, tc := range []struct {
		name string
		body string
	}{
		{"single job", `{"benchmark":"misex1","options":{"target":"fpga"}}`},
		{"mis with lut target", `{"benchmark":"misex1","options":{"mapper":"mis","target":"lut4"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			e := decode[errorResponse](t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, e.Error)
			}
			if !strings.Contains(e.Error, "target") {
				t.Fatalf("error %q does not mention target", e.Error)
			}
			if !strings.Contains(e.Error, "lily") && !strings.Contains(e.Error, `"lut6"`) {
				t.Fatalf("error %q lists neither the accepted values nor the mapper constraint", e.Error)
			}
		})
	}
}

// TestDefaultTargetSubstitution checks WithDefaultTarget (lilyd
// -target): a job that names no target inherits the server default —
// visible in the FlowResult — while an explicit target wins.
func TestDefaultTargetSubstitution(t *testing.T) {
	ts := serve(t, engine.New(engine.Config{Workers: 2}), WithDefaultTarget(lily.TargetLUT4))

	run := func(t *testing.T, opts JobOptions) lily.FlowResult {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Benchmark: "misex1", Options: opts})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", resp.StatusCode)
		}
		sub := decode[SubmitResponse](t, resp)
		r, err := http.Get(ts.URL + sub.Status + "?wait=60s")
		if err != nil {
			t.Fatal(err)
		}
		status := decode[engine.Status](t, r)
		if status.State != "done" {
			t.Fatalf("job state = %s (%s), want done", status.State, status.Error)
		}
		r, err = http.Get(ts.URL + sub.Result)
		if err != nil {
			t.Fatal(err)
		}
		return decode[lily.FlowResult](t, r)
	}

	if res := run(t, JobOptions{}); res.Target != lily.TargetLUT4 {
		t.Fatalf("defaulted job mapped to %v, want lut4", res.Target)
	}
	if res := run(t, JobOptions{Target: "asic"}); res.Target != lily.TargetASIC {
		t.Fatalf("explicit asic job mapped to %v, want asic", res.Target)
	}
}
