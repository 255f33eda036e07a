package experiment

import "testing"

// goldenFingerprints pins the exact run fingerprints of one small run
// per protocol (smallTrace(99), seed 123) under the current v2 format
// (see FingerprintVersion). Their guarantee is behavioral transparency:
// a refactor that moves a single event, timer or tie-break changes
// them; that is a correctness bug, not a golden to update.
var goldenFingerprints = map[Protocol]string{
	SRM:   "v2:82379370e2a1342f7ff2f70c1f7fe081",
	CESRM: "v2:e62b3c9278a6c6c79c0059cd2869d106",
	LMS:   "v2:eb060fbd50c4e4f9bb5df0def6c15b54",
}

// TestGoldenFingerprints pins one small run per protocol against the v2
// goldens.
func TestGoldenFingerprints(t *testing.T) {
	tr := smallTrace(t, 99)
	for p, fp := range goldenFingerprints {
		res, err := Run(RunConfig{Trace: tr, Protocol: p, Seed: 123})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Fingerprint != fp {
			t.Errorf("%v fingerprint drifted:\n got  %s\n want %s", p, res.Fingerprint, fp)
		}
	}
}
