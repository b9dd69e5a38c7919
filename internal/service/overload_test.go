package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestOverloadVerdict drives RunOverload against a fake server whose
// answers are scripted by lane and seed, so each verdict rule is tested
// without timing: the fake answers instantly, so flatness always holds
// and only the shed and probe rules decide.
func TestOverloadVerdict(t *testing.T) {
	// shedProbeSeed is the seed of the fifth loaded-phase probe
	// (RunOverload seeds that phase from 20_000).
	const shedProbeSeed = 20_004
	cases := []struct {
		name        string
		floodRetry  bool  // flood sheds carry Retry-After
		shedProbe   int64 // seed of the probe answered 429 (0 = none)
		wantErrPart string
	}{
		{name: "pass", floodRetry: true},
		{name: "shed without Retry-After", wantErrPart: "missing the Retry-After header"},
		{name: "shed probe", floodRetry: true, shedProbe: shedProbeSeed, wantErrPart: "interactive probes failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req struct {
					Seed int64  `json:"seed"`
					Lane string `json:"lane"`
				}
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				switch {
				case req.Lane == "batch":
					if tc.floodRetry {
						w.Header().Set("Retry-After", "1")
					}
					w.WriteHeader(http.StatusTooManyRequests)
				case req.Seed == tc.shedProbe:
					w.Header().Set("Retry-After", "1")
					w.WriteHeader(http.StatusTooManyRequests)
				default:
					w.Write([]byte(`{}`))
				}
			}))
			defer ts.Close()

			report, err := RunOverload(OverloadConfig{
				URL:              ts.URL,
				Probes:           10,
				ProbeInterval:    time.Millisecond,
				FloodConcurrency: 2,
				Programs:         []string{"graham"},
				AssertFlat:       2,
			})
			if report == nil {
				t.Fatalf("no report: %v", err)
			}
			if report.FloodShed == 0 {
				t.Fatalf("the fake never shed the flood: %+v", report)
			}
			if tc.wantErrPart == "" {
				if err != nil {
					t.Fatalf("verdict failed: %v", err)
				}
				if report.ProbeErrors != 0 {
					t.Fatalf("probe errors = %d, want 0", report.ProbeErrors)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErrPart) {
				t.Fatalf("verdict error = %v, want one containing %q", err, tc.wantErrPart)
			}
		})
	}
}
