// Command bench runs the repository's E1–E21 benchmark rows and emits a
// machine-readable BENCH_<n>.json, so the performance trajectory across
// PRs can be tracked without scraping `go test` text output.
//
// Usage:
//
//	bench                          # all benchmarks, auto-numbered output
//	bench -bench 'ElectionIndex$'  # one row
//	bench -benchtime 1x -out BENCH_ci.json
//
// The JSON records, per benchmark: name, iterations, ns/op, B/op,
// allocs/op, and every custom b.ReportMetric value (phi, advice-bits,
// rounds, ...), plus run metadata: go version, commit, whether the tree
// had uncommitted changes, timestamp, and the machine the rows ran on
// (GOMAXPROCS and the CPU model, as go test reports them).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	CreatedUnix int64    `json:"created_unix"`
	Created     string   `json:"created"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit,omitempty"`
	Dirty       bool     `json:"dirty"`
	GoMaxProcs  int      `json:"gomaxprocs,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	BenchRegexp string   `json:"bench_regexp"`
	BenchTime   string   `json:"bench_time,omitempty"`
	Results     []Result `json:"results"`
}

func main() {
	var (
		bench     = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "", "go test -benchtime value (e.g. 1x, 100ms)")
		count     = flag.Int("count", 1, "go test -count value")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "", "output file (default: next unused BENCH_<n>.json)")
		verbose   = flag.Bool("v", false, "echo the raw go test output")
	)
	flag.Parse()
	if err := run(*bench, *benchtime, *pkg, *out, *count, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime, pkg, out string, count int, verbose bool) error {
	args := []string{"test", "-run=NONE", "-bench=" + bench, "-benchmem",
		"-count=" + strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime="+benchtime)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if verbose {
		os.Stdout.Write(raw)
	}
	if err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	rep, err := parse(string(raw))
	if err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark lines matched %q", bench)
	}
	now := time.Now().UTC()
	rep.CreatedUnix = now.Unix()
	rep.Created = now.Format(time.RFC3339)
	rep.GoVersion = goVersion()
	rep.Commit, rep.Dirty = gitCommit(), gitDirty()
	rep.BenchRegexp, rep.BenchTime = bench, benchtime
	if out == "" {
		out = nextOutputName()
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %d results to %s\n", len(rep.Results), out)
	return nil
}

// benchLine matches "BenchmarkFoo/sub-8   123   456 ns/op   ..." lines;
// procsSuffix the "-8" that go test appends when GOMAXPROCS is not 1.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
	procsSuffix = regexp.MustCompile(`-(\d+)$`)
)

// parse reads go test -bench output into a Report's results, CPU model
// and GOMAXPROCS. GOMAXPROCS is left 0 when the rows disagree on it, as
// under a -cpu list.
func parse(out string) (Report, error) {
	var rep Report
	procs := map[int]bool{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return Report{}, fmt.Errorf("bad iteration count in %q", line)
		}
		p := 1
		if s := procsSuffix.FindStringSubmatch(m[1]); s != nil {
			p, _ = strconv.Atoi(s[1])
		}
		procs[p] = true
		r := Result{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Report{}, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BytesPerOp = val
			case "allocs/op":
				r.AllocsPerOp = val
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = val
			}
		}
		rep.Results = append(rep.Results, r)
	}
	if len(procs) == 1 {
		for p := range procs {
			rep.GoMaxProcs = p
		}
	}
	return rep, nil
}

// nextOutputName picks BENCH_<n>.json for the smallest n larger than any
// existing numbered report, so successive runs accumulate a trajectory.
func nextOutputName() string {
	max := 0
	matches, _ := filepath.Glob("BENCH_*.json")
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "BENCH_%d.json", &n); err == nil && n > max {
			max = n
		}
	}
	return fmt.Sprintf("BENCH_%d.json", max+1)
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// gitDirty reports whether the working tree has uncommitted changes or
// untracked files, which the commit alone would not reproduce.
func gitDirty() bool {
	out, err := exec.Command("git", "status", "--porcelain").Output()
	return err == nil && len(bytes.TrimSpace(out)) > 0
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
