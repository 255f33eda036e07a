package trace

import (
	"fmt"
	"time"

	"cesrm/internal/topology"
)

// CatalogEntry describes one row of the paper's Table 1 together with
// the generation parameters that reproduce its shape synthetically.
type CatalogEntry struct {
	// Index is the 1-based trace number used throughout the paper's
	// figures.
	Index int
	// Name is the trace's source-and-date label.
	Name string
	// Receivers, TreeDepth, Period, Packets and Losses mirror the
	// corresponding Table 1 columns.
	Receivers int
	TreeDepth int
	Period    time.Duration
	Packets   int
	Losses    int
	// Seed makes generation reproducible per trace.
	Seed int64
}

// Catalog lists the 14 Yajnik et al. traces exactly as reported in
// Table 1 of the paper.
var Catalog = []CatalogEntry{
	{1, "RFV960419", 12, 6, 80 * time.Millisecond, 45001, 24086, 9601},
	{2, "RFV960508", 10, 5, 40 * time.Millisecond, 148970, 55987, 9602},
	{3, "UCB960424", 15, 7, 40 * time.Millisecond, 93734, 33506, 9603},
	{4, "WRN950919", 8, 4, 80 * time.Millisecond, 17637, 10276, 9604},
	{5, "WRN951030", 10, 4, 80 * time.Millisecond, 57030, 15879, 9605},
	{6, "WRN951101", 9, 5, 80 * time.Millisecond, 41751, 18911, 9606},
	{7, "WRN951113", 12, 5, 80 * time.Millisecond, 46443, 29686, 9607},
	{8, "WRN951114", 10, 4, 80 * time.Millisecond, 38539, 11803, 9608},
	{9, "WRN951128", 9, 4, 80 * time.Millisecond, 44956, 33040, 9609},
	{10, "WRN951204", 11, 5, 80 * time.Millisecond, 45404, 16814, 9610},
	{11, "WRN951211", 11, 4, 80 * time.Millisecond, 72519, 44649, 9611},
	{12, "WRN951214", 7, 4, 80 * time.Millisecond, 38724, 20872, 9612},
	{13, "WRN951216", 8, 3, 80 * time.Millisecond, 50202, 37833, 9613},
	{14, "WRN951218", 8, 3, 80 * time.Millisecond, 69994, 43578, 9614},
}

// Extended lists synthetic stress entries beyond the paper's Table 1.
// They are deliberately kept out of Catalog: suites, goldens and the
// "all traces" defaults stay pinned to the 14 paper traces, and the
// extended entries are opt-in by name or explicit index. SYN10K is the
// "tens of thousands of receivers" workload: 10,000 receivers on a
// depth-8 tree.
var Extended = []CatalogEntry{
	{15, "SYN10K", 10000, 8, 40 * time.Millisecond, 5000, 1500000, 9615},
}

// Spec derives the generation spec for the entry, with packet and loss
// counts scaled by the positive dimensionless factor scale. Scaling
// preserves loss rates and burst structure; scale 1 reproduces the full
// Table 1 volumes, smaller scales shrink runtime, and scales above 1
// extrapolate beyond the recorded transmissions (memory-scaling
// experiments use scale 5).
func (e CatalogEntry) Spec(scale float64) (GenSpec, error) {
	if scale <= 0 {
		return GenSpec{}, fmt.Errorf("trace: scale %v must be positive", scale)
	}
	packets := int(float64(e.Packets)*scale + 0.5)
	if packets < 100 {
		packets = 100
	}
	losses := int(float64(e.Losses) * float64(packets) / float64(e.Packets))
	return GenSpec{
		Name:         e.Name,
		Topology:     topology.GenSpec{Receivers: e.Receivers, Depth: e.TreeDepth},
		NumPackets:   packets,
		Period:       e.Period,
		TargetLosses: losses,
		Seed:         e.Seed,
	}, nil
}

// Load generates the synthetic trace for the entry at the given scale.
func (e CatalogEntry) Load(scale float64) (*Trace, error) {
	spec, err := e.Spec(scale)
	if err != nil {
		return nil, err
	}
	return Generate(spec)
}

// LoadCatalog generates all 14 traces at the given scale.
func LoadCatalog(scale float64) ([]*Trace, error) {
	out := make([]*Trace, 0, len(Catalog))
	for _, e := range Catalog {
		t, err := e.Load(scale)
		if err != nil {
			return nil, fmt.Errorf("trace %d (%s): %w", e.Index, e.Name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ByName returns the catalog entry with the given name, searching the
// Table 1 catalog first and then the extended stress entries.
func ByName(name string) (CatalogEntry, bool) {
	for _, e := range Catalog {
		if e.Name == name {
			return e, true
		}
	}
	for _, e := range Extended {
		if e.Name == name {
			return e, true
		}
	}
	return CatalogEntry{}, false
}
