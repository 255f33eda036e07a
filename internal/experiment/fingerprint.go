package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// FingerprintVersion is the current fingerprint format version. The
// fingerprint string is "v<version>:<hex>" where <hex> is the first 16
// bytes of a SHA-256 over the run's canonical digest input (see
// fpHasher.finish). Bump the version whenever the digest input changes,
// so fingerprints from different formats never compare equal.
//
// v2 streams: each event is folded into the digest the moment the
// Recorder observes it and the event count closes section 1, so the
// stream is never materialized. (v1 was length-prefixed, which forced
// retaining every event until the run finished.)
const FingerprintVersion = 2

// fpHasher accumulates the canonical digest. Every input is written
// through fixed-width little-endian encodings, so the digest is a pure
// function of the run's observable behavior — independent of platform,
// process, and map iteration order. Section 1 streams: event folds one
// event at a time, and finish seals the count plus sections 2-4.
type fpHasher struct {
	h      hash.Hash
	buf    [8]byte
	ev     [11 * 8]byte // one event's eleven words, see event
	events uint64
}

func newFPHasher() *fpHasher { return &fpHasher{h: sha256.New()} }

func (f *fpHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fpHasher) i64(v int64)            { f.u64(uint64(v)) }
func (f *fpHasher) f64(v float64)          { f.u64(math.Float64bits(v)) }
func (f *fpHasher) node(n topology.NodeID) { f.i64(int64(n)) }

func (f *fpHasher) sum() string {
	return fmt.Sprintf("v%d:%x", FingerprintVersion, f.h.Sum(nil)[:16])
}

// event folds one protocol event into section 1 of the digest, in
// dispatch order. The runner installs this as the Recorder's sink, so
// the stream is digested as it happens and never needs retaining.
func (f *fpHasher) event(ev stats.Event) {
	f.events++
	expedited := uint64(0)
	if ev.Expedited {
		expedited = 1
	}
	// The eleven words go to the hash in one Write: the bytes the
	// per-word encoders above would produce, without their eleven
	// hash.Hash interface calls per event.
	le := binary.LittleEndian
	b := f.ev[:0]
	b = le.AppendUint64(b, uint64(ev.Kind))
	b = le.AppendUint64(b, uint64(ev.At))
	b = le.AppendUint64(b, uint64(ev.Host))
	b = le.AppendUint64(b, uint64(ev.Source))
	b = le.AppendUint64(b, uint64(ev.Seq))
	b = le.AppendUint64(b, uint64(ev.Round))
	b = le.AppendUint64(b, expedited)
	b = le.AppendUint64(b, uint64(ev.OwnRequests))
	b = le.AppendUint64(b, uint64(ev.Reschedules))
	b = le.AppendUint64(b, uint64(ev.Requestor))
	b = le.AppendUint64(b, uint64(ev.Replier))
	f.h.Write(b)
}

// finish seals the digest of a run whose events were already folded via
// event, appending the stream length (closing section 1) and sections
// 2-4, and returns the fingerprint string. The full input covers, in a
// fixed canonical order:
//
//  1. the ordered protocol-event stream (the engine's dispatch order —
//     any scheduling nondeterminism shows up here first), closed by its
//     length,
//  2. the link-crossing cost counters,
//  3. the finish time,
//  4. per-receiver recovery metrics, iterated in trace receiver order
//     (never map order): loss counts, transmission counters, recovery
//     counts and mean normalized latency.
//
// Two runs of the same RunConfig must produce byte-identical
// fingerprints; a divergence is a determinism regression in the engine,
// the protocols, or the runner.
func (f *fpHasher) finish(crossings netsim.CrossingCounts,
	finished sim.Time, receivers []topology.NodeID, col *stats.Collector, rtt stats.RTTFunc) string {

	// Close section 1 with the event count.
	f.u64(f.events)

	// Section 2: link-crossing counters.
	f.u64(crossings.Data)
	f.u64(crossings.Session)
	f.u64(crossings.PayloadMulticast)
	f.u64(crossings.PayloadSubcast)
	f.u64(crossings.PayloadUnicast)
	// Multicast and subcast control crossings are digested combined: the
	// ControlSubcast counter was split out of ControlMulticast after the
	// fingerprint format was frozen, and hashing them as one value keeps
	// every historical fingerprint valid (no protocol emits subcast
	// control today, so the sum equals the old field anyway).
	f.u64(crossings.ControlMulticast + crossings.ControlSubcast)
	f.u64(crossings.ControlUnicast)

	// Section 3: finish time.
	f.i64(int64(finished))

	// Section 4: per-receiver recovery metrics in trace order.
	f.u64(uint64(len(receivers)))
	for _, r := range receivers {
		f.node(r)
		f.i64(int64(col.Losses(r)))
		hc := col.Counts(r)
		f.i64(int64(hc.Requests))
		f.i64(int64(hc.ExpRequests))
		f.i64(int64(hc.Replies))
		f.i64(int64(hc.ExpReplies))
		f.i64(int64(hc.Sessions))
		lat := col.NormalizedRecovery(r, rtt)
		f.i64(int64(lat.Count))
		f.f64(lat.MeanRTT)
	}

	return f.sum()
}

// VerifyDeterminism runs cfg once, then reruns it extra more times and
// checks every rerun reproduces the first run's fingerprint. It returns
// the first run's result; a fingerprint divergence (a determinism
// regression) or any run failure is an error. extra < 1 is treated
// as 1.
func VerifyDeterminism(cfg RunConfig, extra int) (*RunResult, error) {
	if extra < 1 {
		extra = 1
	}
	base, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < extra; i++ {
		r, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: determinism rerun %d/%d failed: %w", i+1, extra, err)
		}
		if r.Fingerprint != base.Fingerprint {
			return nil, fmt.Errorf("experiment: determinism violation on rerun %d/%d: fingerprint %s != %s",
				i+1, extra, r.Fingerprint, base.Fingerprint)
		}
	}
	return base, nil
}
