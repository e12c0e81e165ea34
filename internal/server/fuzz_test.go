package server

import (
	"bytes"
	"io"
	"testing"

	"lily"
	"lily/internal/engine"
)

// fuzzBLIF is the circuit the fuzzed options are digested with.
const fuzzBLIF = ".model f\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"

// FuzzSubmitOptions feeds hostile JSON to the option boundary: decoding
// into a SubmitRequest through the server's strict body decoder and
// converting its options must never panic, and
// any options ToFlowOptions accepts must have an idempotent canonical
// form that digests exactly like the options as spelled. The seeds replay
// in plain `go test`; `make fuzz` explores further.
func FuzzSubmitOptions(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"misex1","options":{"mapper":"lily","objective":"area","target":"asic"}}`,
		`{"options":{"mapper":"mis","target":"lut4"}}`,
		`{"options":{"mapper":"mis2.1","tree_mode":true,"replace_every":4,"wire_weight":0.5,"autotune":true}}`,
		`{"options":{"fanout_optimize":true,"max_fanout":1,"multilevel_threshold":-3}}`,
		`{"options":{"objective":"delay","library":"tiny","target":"lut6","two_pass_delay":true}}`,
		`{"options":{"clock_period_ns":-2,"wire_weight":1e308}}`,
		`{"options":{"parallelism":2}}`,
		`{"benchmark":"misex1"} trailing-garbage`,
		`{"options":{"mapper":"LILY","objective":7}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		if decodeBody(nil, io.NopCloser(bytes.NewReader(data)), &req) != nil {
			return
		}
		raw, err := req.Options.ToFlowOptions()
		if err != nil {
			return
		}
		norm, err := raw.Normalize()
		if err != nil {
			t.Fatalf("ToFlowOptions accepted %+v, which Normalize rejects: %v", raw, err)
		}
		if again, err := norm.Normalize(); err != nil || again != norm {
			t.Fatalf("Normalize not idempotent:\n once %+v\ntwice %+v (err %v)", norm, again, err)
		}
		digest := func(opt lily.FlowOptions) string {
			d, err := engine.RequestDigest(engine.Request{BLIF: []byte(fuzzBLIF), Options: opt})
			if err != nil {
				t.Fatalf("RequestDigest(%+v): %v", opt, err)
			}
			return d
		}
		if digest(raw) != digest(norm) {
			t.Fatalf("raw and normalized options digest differently:\n raw %+v\nnorm %+v", raw, norm)
		}
	})
}
