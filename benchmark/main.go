// Command benchmark is this repository's benchmark: five named
// workloads, six end-to-end metrics with fixed regression bounds, and a
// traced run that attributes host time to the sim, netsim, agent, stats
// and wire layers. See README.md in this directory.
//
// Usage:
//
//	go run ./benchmark [-seed 1] [-passes 3] [-commit REV] [-out results.json] [-spans spans.ndjson]
//	go run ./benchmark -workload NAME -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare a.json b.json
//
// Without -workload every workload runs its timed passes and its traced
// pass, every metric is printed by name with its unit, and the exit code
// is non-zero if any operation failed. With -workload (the form the
// benchmark driver uses) one workload runs and the last line of standard
// output is one JSON object holding the end-to-end metrics (-trace 0) or
// the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultsFile is the -out schema: the measurements plus everything that
// makes two files comparable.
type resultsFile struct {
	Schema     int               `json:"schema"`
	Seed       int64             `json:"seed"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Passes     int               `json:"passes"`
	Workloads  []*workloadResult `json:"workloads"`
}

// commit returns the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and end with the driver's JSON line (default: all five)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "with -workload: add timed passes until this many seconds are measured (at least one pass)")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	passes := fs.Int("passes", 3, "timed passes per workload when -seconds is not given")
	out := fs.String("out", "", "write the results file here")
	rev := fs.String("commit", commit(), "commit to record in the results file (go build stamps one into the binary, go run does not)")
	spansPath := fs.String("spans", "", "write the traced passes' raw spans here, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	o := runOptions{Seed: *seed, Scale: 1, EndToEnd: true, Layers: true, Passes: *passes, Probe: newHostProbe()}
	names := make([]string, 0, len(workloadSpecs))
	for _, w := range workloadSpecs {
		names = append(names, w.Name)
	}
	if *workload != "" {
		found := false
		for _, n := range names {
			found = found || n == *workload
		}
		if !found {
			return fmt.Errorf("unknown workload %q (have %v)", *workload, names)
		}
		names = []string{*workload}
		o.EndToEnd, o.Layers = *traced == 0, *traced != 0
		if *seconds > 0 {
			o.Seconds, o.Passes = *seconds, 1
		}
	}
	if o.Passes < 1 {
		return fmt.Errorf("-passes %d must be at least 1", o.Passes)
	}
	if *spansPath != "" {
		f, err := os.Create(*spansPath)
		if err != nil {
			return err
		}
		defer f.Close()
		o.SpansOut = f
	}

	file := resultsFile{
		Schema: 1, Seed: *seed, Commit: *rev, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Passes: o.Passes,
	}
	failed := 0
	for _, name := range names {
		w, err := runWorkload(name, o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printWorkload(stdout, w)
		failed += w.Failed
		file.Workloads = append(file.Workloads, w)
	}
	if *out != "" {
		if err := writeResults(*out, file); err != nil {
			return err
		}
	}
	if *workload != "" {
		if err := printDriverLine(stdout, file.Workloads[0], o.EndToEnd); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// printWorkload prints every metric the run measured, by name, with its
// unit, and every failure.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s: %d operations attempted, %d failed\n", r.Name, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if r.EndToEnd != nil {
		for _, m := range endToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "%-14s %-22s %14.6g %-5s (min %.6g, max %.6g, n=%d; %s is better, may worsen by %.0f%%)\n",
				r.Name, m.Name, s.Median, m.Unit, s.Min, s.Max, s.N, m.Better, 100*m.Bound)
		}
		for _, name := range []string{"wall_raw_s", "slowdown"} {
			s := r.Host[name]
			fmt.Fprintf(w, "%-14s host.%-17s %14.6g %-5s (min %.6g, max %.6g, n=%d; as measured, before the host correction)\n",
				r.Name, name, s.Median, s.Unit, s.Min, s.Max, s.N)
		}
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-14s %-40s %14.6g %s\n", r.Name, m.Name, r.PerLayer[m.Name], m.Unit)
		}
	}
}

// driverValue is one metric in the driver's JSON line.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the single JSON object the benchmark driver
// reads from the last line of standard output.
func printDriverLine(w io.Writer, r *workloadResult, endToEndRun bool) error {
	metrics := map[string]driverValue{}
	if endToEndRun {
		for _, m := range endToEnd {
			metrics[m.Name] = driverValue{r.EndToEnd[m.Name].Median, m.Unit}
		}
	} else {
		for _, m := range perLayer {
			metrics[m.Name] = driverValue{r.PerLayer[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeResults stores a results file.
func writeResults(path string, f resultsFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResults loads a results file.
func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
