package main

import (
	"reflect"
	"testing"
)

// capturedOutput is go test -bench output as it reaches parse: the
// header lines, rows with custom metrics, a sub-benchmark row without
// memory columns, and the trailer.
const capturedOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkFrontierRefinement/sqgrid-n100000/frontier-2         	       1	  80662382 ns/op	        22.62 peak-heap-MB	       157.0 phi	 1234 B/op	      17 allocs/op
BenchmarkShardedBSP/random-n10000/warm/shards4-crash-2        	       5	 211000000 ns/op	         4.000 crashes	       3.000 rounds
PASS
ok  	repro	11.477s
`

func TestParse(t *testing.T) {
	rep, err := parse(capturedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if rep.GoMaxProcs != 2 {
		t.Errorf("gomaxprocs = %d, want 2", rep.GoMaxProcs)
	}
	want := []Result{
		{
			Name: "BenchmarkFrontierRefinement/sqgrid-n100000/frontier-2", Iterations: 1,
			NsPerOp: 80662382, BytesPerOp: 1234, AllocsPerOp: 17,
			Metrics: map[string]float64{"peak-heap-MB": 22.62, "phi": 157},
		},
		{
			Name: "BenchmarkShardedBSP/random-n10000/warm/shards4-crash-2", Iterations: 5,
			NsPerOp: 211000000,
			Metrics: map[string]float64{"crashes": 4, "rounds": 3},
		},
	}
	if !reflect.DeepEqual(rep.Results, want) {
		t.Errorf("results = %+v\nwant %+v", rep.Results, want)
	}
}

// TestParseGoMaxProcs covers the rows go test prints without a suffix
// (GOMAXPROCS 1) and rows that disagree, as under -cpu 1,4.
func TestParseGoMaxProcs(t *testing.T) {
	for _, tc := range []struct {
		out  string
		want int
	}{
		{"BenchmarkA/x 10 5 ns/op\nBenchmarkB 10 5 ns/op\n", 1},
		{"BenchmarkA/x 10 5 ns/op\nBenchmarkA/x-4 10 5 ns/op\n", 0},
		{"BenchmarkA/x-8 10 5 ns/op\n", 8},
	} {
		rep, err := parse(tc.out)
		if err != nil {
			t.Fatal(err)
		}
		if rep.GoMaxProcs != tc.want {
			t.Errorf("%q: gomaxprocs = %d, want %d", tc.out, rep.GoMaxProcs, tc.want)
		}
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse("BenchmarkA 10 five ns/op\n"); err == nil {
		t.Fatal("parse accepted a non-numeric value")
	}
}
