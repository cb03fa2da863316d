package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeScale runs every workload at one hundredth of its size with two
// rounds: a correctness smoke, not a measurement.
func smokeScale() scale { return scale{div: 100, rounds: 2, setups: 1, seconds: nominalSeconds} }

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCode requires BENCHMARK.json and the code to
// declare exactly the same workloads, metrics and units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, code sizes its counts for %d", bf.RunSeconds, nominalSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the allowed alphabet", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in code (or the reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		name("metric", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], code has %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		// No bound is wider than 10 %, except that of setup_s: the contract
		// requires that metric and gives it the widest bound (README).
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > limit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name("metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], code has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// layersOf lists, per workload, per-layer metrics the traced pass must
// have measured (non-zero).
var layersOf = map[string][]string{
	"oltp_point": {"server.roundtrip_us", "session.exec_sql_us", "session.exec_prepared_us", "sql.parse_us",
		"sql.plan_us", "plan.fingerprint_ns", "exec.point_select_us", "exec.point_update_us", "txn.commit_us",
		"wal.serialize_flush_us", "wal.bytes_per_commit", "engine.checkpoint_ms", "engine.recover_ms",
		"storage.bulk_load_rows_per_s", "index.build_ms", "server.frame_codec_ns"},
	"mixed_rw": {"server.roundtrip_us", "exec.insert_us", "exec.delete_us", "exec.range_select_us",
		"exec.point_update_us", "txn.commit_us", "wal.flushes", "wal.log_bytes_per_user_byte",
		"engine.checkpoint_image_bytes", "gc.run_ms", "repl.sync_us", "repl.ship_bytes_per_commit", "repl.frame_codec_ns"},
	"olap_scan": {"exec.scan_interpret_us", "exec.agg_compile_us", "exec.join_vectorize_us", "exec.topn_part4dop2_us",
		"exec.alloc_bytes_part4dop2", "exec.scan_rows_per_s", "hw.sim_over_wall_vectorize", "storage.bulk_load_rows_per_s"},
	"selfdrive_loop": {"runner.sweep_s", "runner.records", "modeling.train_s", "modeling.predict_query_us",
		"forecast.forecast_all_us", "planner.plan_actions_us"}, // two intervals are too few for a prediction
}

// TestSmoke runs all four workloads small, with the traced pass and every
// output check, and requires a well-formed trace.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			res, err := runWorkload(io.Discard, w, smokeScale(), 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.checkErr != nil {
				t.Fatalf("output check: %v", res.checkErr)
			}
			if res.failed != 0 || res.attempted < 2 {
				t.Fatalf("attempted %d failed %d", res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v, ok := res.e2e[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v", d.name, v)
				}
			}
			declared := map[string]bool{}
			for _, d := range perLayer {
				declared[d.name] = true
			}
			for name := range res.layer {
				if !declared[name] {
					t.Errorf("per-layer metric %s is emitted but not declared", name)
				}
			}
			for _, name := range layersOf[w.name] {
				if res.layer[name] <= 0 {
					t.Errorf("per-layer metric %s = %v, want it measured", name, res.layer[name])
				}
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.write(path, w.name, 1); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace has no spans")
			}
			for i, s := range tf.Spans {
				if s.Name == "" || s.Layer == "" || s.EndNS < s.StartNS {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
				if s.Parent == -1 {
					continue
				}
				if s.Parent < 0 || s.Parent >= i {
					t.Fatalf("span %d: parent %d is not an earlier span", i, s.Parent)
				}
				if p := tf.Spans[s.Parent]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
					t.Fatalf("span %d [%d, %d] is outside its parent %d [%d, %d]", i, s.StartNS, s.EndNS, s.Parent, p.StartNS, p.EndNS)
				}
			}
			for layer, ns := range tf.SelfTimeNS {
				if ns < 0 {
					t.Errorf("layer %s has negative self time %v", layer, ns)
				}
			}
		})
	}
}

// TestSecondSeed requires every check to pass on another seed.
func TestSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("TestSmoke covers one seed")
	}
	for _, w := range workloads[:3] { // selfdrive_loop's second seed would retrain; the command covers it
		res, err := runWorkload(io.Discard, w, smokeScale(), 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.checkErr != nil || res.failed != 0 {
			t.Errorf("%s seed 2: failed %d, check %v", w.name, res.failed, res.checkErr)
		}
	}
}

// TestCorruptExpectationFails shows the output checks bite: with one
// expected result falsified, every workload must report the run as wrong.
func TestCorruptExpectationFails(t *testing.T) {
	sc := smokeScale()
	sc.corrupt = true
	for _, w := range workloads {
		if testing.Short() && w == selfdriveLoop {
			continue // it would train the models once more
		}
		res, err := runWorkload(io.Discard, w, sc, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.checkErr == nil && res.failed == 0 {
			t.Errorf("%s: a falsified expectation went unnoticed", w.name)
		}
	}
}

// TestUnsetCountRefuses requires a clear error, not a time-boxed run, when
// a workload's round count is unset.
func TestUnsetCountRefuses(t *testing.T) {
	w := *oltpPoint
	w.roundOps = 0
	if _, err := runWorkload(io.Discard, &w, smokeScale(), 1, nil); err == nil {
		t.Fatal("a workload without a round operation count ran")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
