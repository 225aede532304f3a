package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measureSetup re-executes it to time set-up.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram pins BENCHMARK.json to the gated workloads and
// the metrics the program reports.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var gated []workload
	for _, wl := range workloads {
		if wl.gated {
			gated = append(gated, wl)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	for _, c := range []struct {
		name      string
		spec, got []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.got) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program %d", c.name, len(c.spec), len(c.got))
		}
		for i := range c.spec {
			if c.spec[i] != c.got[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, program %v", c.name, i, c.spec[i], c.got[i])
			}
		}
	}
}

// TestTinyWorkloads runs every workload, gated or not, at a tiny size,
// untraced and traced: each must pass its verification and emit exactly
// the metrics BENCHMARK.json names, with their units.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl.name
			want := spec.EndToEnd
			if traced {
				name += "/traced"
				want = spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				o := &options{workload: wl.name, seed: 7, seconds: 1, trace: traced, tiny: true, workDir: t.TempDir()}
				var out bytes.Buffer
				res, err := execute(o, &wl, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced && !bytes.Contains(out.Bytes(), []byte("tracing overhead")) {
					t.Errorf("traced run printed no tracing overhead:\n%s", out.String())
				}
			})
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "pass", Start: 0, End: 10000},
		{ID: 2, Parent: 1, Name: "a", Start: 1000, End: 4000},
		{ID: 3, Parent: 1, Name: "b", Start: 3000, End: 6000}, // overlaps a
	}
	self := tr.selfTimes()
	if self["pass"] != 5 || self["a"] != 3 || self["b"] != 3 {
		t.Errorf("self times %v, want pass 5 ms, a 3 ms, b 3 ms", self)
	}
}
