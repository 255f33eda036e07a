// Package cli holds the flag plumbing the commands share: pprof
// profiles, the repeatable -scale list and catalog trace selection by
// index list or name.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cesrm/internal/trace"
)

// Profiles holds the -cpuprofile and -memprofile flags.
type Profiles struct{ cpu, mem string }

// AddProfiles registers -cpuprofile and -memprofile on fs; of names
// what is profiled ("the run") in the flags' help.
func AddProfiles(fs *flag.FlagSet, of string) *Profiles {
	p := new(Profiles)
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of "+of+" to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile taken after "+of+" to this file")
	return p
}

// StartCPU starts the CPU profile when -cpuprofile names a file. The
// returned stop ends the profile and closes the file; it is never nil.
func (p *Profiles) StartCPU() (stop func(), err error) {
	if p.cpu == "" {
		return func() {}, nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMem writes the allocation profile when -memprofile names a file.
func (p *Profiles) WriteMem() error {
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the allocation profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Scales collects repeated (or comma-separated) -scale values.
type Scales []float64

func (s *Scales) String() string {
	parts := make([]string, len(*s))
	for i, v := range *s {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func (s *Scales) Set(v string) error {
	for _, f := range strings.Split(v, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("bad scale %q: %w", f, err)
		}
		if x <= 0 {
			return fmt.Errorf("scale %v must be positive", x)
		}
		*s = append(*s, x)
	}
	return nil
}

// Names collects repeated (or comma-separated) -trace name filters.
type Names []string

func (n *Names) String() string { return strings.Join(*n, ",") }

func (n *Names) Set(v string) error {
	for _, f := range strings.Split(v, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return fmt.Errorf("empty trace name filter")
		}
		*n = append(*n, f)
	}
	return nil
}

// ParseIndices parses a comma-separated list of 1-based catalog
// indices; the empty list is nil.
func ParseIndices(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(list, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad trace index %q: %w", f, err)
		}
		out = append(out, i)
	}
	return out, nil
}

// SelectTraces resolves an index list and name filters (case-insensitive
// substrings) to their union as 1-based catalog indices, in catalog
// order and without repeats. No selection at all returns nil, meaning
// every trace. An index outside the catalog is kept, last, so the
// caller reports it.
func SelectTraces(indexList string, names Names) ([]int, error) {
	if indexList == "" && len(names) == 0 {
		return nil, nil
	}
	indices, err := ParseIndices(indexList)
	if err != nil {
		return nil, err
	}
	pick := make(map[int]bool)
	for _, i := range indices {
		pick[i] = true
	}
	for _, name := range names {
		matched := false
		for _, e := range trace.Catalog {
			if strings.Contains(strings.ToLower(e.Name), strings.ToLower(name)) {
				pick[e.Index] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("-trace %q matches no catalog trace", name)
		}
	}
	var out []int
	for _, e := range trace.Catalog {
		if pick[e.Index] {
			out = append(out, e.Index)
			delete(pick, e.Index)
		}
	}
	for i := range pick {
		out = append(out, i)
	}
	return out, nil
}
