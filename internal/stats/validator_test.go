package stats

import (
	"strings"
	"testing"

	"cesrm/internal/srm"
)

func TestValidatorCleanSequence(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(100))
	v.RequestSent(2, 0, 1, 0)
	v.RequestSent(2, 0, 1, 1)
	v.Recovered(2, 0, 1, at(400), srm.RecoveryInfo{DetectedAt: at(100), OwnRequests: 2})
	v.ExpRequestSent(3, 0, 7)
	v.ReplySent(4, 0, 7, true)
	v.SessionSent(2)
	if err := v.Err(); err != nil {
		t.Fatalf("clean sequence flagged: %v", err)
	}
}

func violationContains(t *testing.T, v *Validator, want string) {
	t.Helper()
	for _, s := range v.Violations() {
		if strings.Contains(s, want) {
			return
		}
	}
	t.Fatalf("expected violation containing %q, got %v", want, v.Violations())
}

func TestValidatorDoubleDetection(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(100))
	v.LossDetected(2, 0, 1, at(200))
	violationContains(t, v, "detected twice")
}

func TestValidatorRecoveryWithoutDetection(t *testing.T) {
	v := NewValidator()
	v.Recovered(2, 0, 1, at(100), srm.RecoveryInfo{})
	violationContains(t, v, "without detection")
}

func TestValidatorRecoveryBeforeDetection(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(300))
	// Same-host clock runs backwards too; both violations fire.
	v.Recovered(2, 0, 1, at(200), srm.RecoveryInfo{DetectedAt: at(300)})
	violationContains(t, v, "before detection")
}

func TestValidatorRecoveryReportsDetection(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(100))
	v.Recovered(2, 0, 1, at(300), srm.RecoveryInfo{DetectedAt: at(150)})
	violationContains(t, v, "reports detection at 150ms, detected at 100ms")
	if got := v.ViolationRecords(); len(got) != 1 || got[0].Class != "recovery-detected-at" {
		t.Fatalf("violations = %+v, want one recovery-detected-at", got)
	}
}

func TestValidatorDoubleRecovery(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(100))
	v.Recovered(2, 0, 1, at(200), srm.RecoveryInfo{DetectedAt: at(100)})
	v.Recovered(2, 0, 1, at(300), srm.RecoveryInfo{DetectedAt: at(100)})
	violationContains(t, v, "recovered twice")
}

func TestValidatorRequestAfterRecovery(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(100))
	v.Recovered(2, 0, 1, at(200), srm.RecoveryInfo{DetectedAt: at(100)})
	v.RequestSent(2, 0, 1, 0)
	violationContains(t, v, "already-recovered")
}

func TestValidatorRequestForUndetected(t *testing.T) {
	v := NewValidator()
	v.RequestSent(2, 0, 1, 0)
	violationContains(t, v, "undetected")
}

func TestValidatorNonMonotonicRounds(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(100))
	v.RequestSent(2, 0, 1, 1)
	v.RequestSent(2, 0, 1, 1)
	violationContains(t, v, "round")
}

func TestValidatorExpeditedReplyOverflow(t *testing.T) {
	v := NewValidator()
	v.ReplySent(4, 0, 7, true)
	violationContains(t, v, "expedited replies")
}

func TestValidatorClockMonotonicPerHost(t *testing.T) {
	v := NewValidator()
	v.LossDetected(2, 0, 1, at(300))
	v.LossDetected(2, 0, 2, at(200))
	violationContains(t, v, "before previous event")
}

func TestValidatorErrNilWhenClean(t *testing.T) {
	v := NewValidator()
	if v.Err() != nil {
		t.Fatal("fresh validator has error")
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := New(), New()
	tee := Tee{a, b}
	tee.LossDetected(2, 0, 1, at(0))
	tee.Recovered(2, 0, 1, at(100), srm.RecoveryInfo{DetectedAt: at(0)})
	tee.RequestSent(2, 0, 1, 0)
	tee.ExpRequestSent(2, 0, 2)
	tee.ReplySent(3, 0, 1, false)
	tee.SessionSent(3)
	for i, c := range []*Collector{a, b} {
		if len(c.Recoveries()) != 1 {
			t.Fatalf("collector %d missed recovery", i)
		}
		tot := c.TotalCounts()
		if tot.Requests != 1 || tot.ExpRequests != 1 || tot.Replies != 1 || tot.Sessions != 1 {
			t.Fatalf("collector %d totals = %+v", i, tot)
		}
	}
}

// TestValidatorOnlyAHolderRepairs walks invariant 11 through its cases:
// the source and a member since the start may reply for anything they
// did not lose; a joiner holds nothing until its floor is reported and
// nothing below it after; a detected, unrecovered loss is not held; a
// restart reopens every stream at 0.
func TestValidatorOnlyAHolderRepairs(t *testing.T) {
	v := NewValidator()
	v.ReplySent(0, 0, 3, false) // the source
	v.ReplySent(2, 0, 3, false) // a member since the start
	if err := v.Err(); err != nil {
		t.Fatalf("holders' replies flagged: %v", err)
	}
	v.NoteLeave(5, at(0))
	v.NoteJoin(5, at(100))
	v.ReplySent(5, 0, 3, false)
	violationContains(t, v, "host 5: reply for (0,3) below its floor none")
	Tee{v}.NoteFloor(5, 0, 10)
	v.ReplySent(5, 0, 9, false)
	violationContains(t, v, "host 5: reply for (0,9) below its floor 10")
	before := len(v.Violations())
	v.ReplySent(5, 0, 10, false)
	v.LossDetected(5, 0, 11, at(200))
	v.Recovered(5, 0, 11, at(300), srm.RecoveryInfo{DetectedAt: at(200)})
	v.ReplySent(5, 0, 11, false)
	if got := v.Violations()[before:]; len(got) != 0 {
		t.Fatalf("replies at and above the floor flagged: %v", got)
	}
	v.LossDetected(2, 0, 4, at(200))
	v.ReplySent(2, 0, 4, false)
	violationContains(t, v, "host 2: reply for (0,4), detected lost and not recovered")
	v.NoteCrash(5, at(400))
	v.NoteRestart(5, at(500))
	before = len(v.Violations())
	v.ReplySent(5, 0, 1, false)
	if got := v.Violations()[before:]; len(got) != 0 {
		t.Fatalf("a restarted host's reply flagged: %v", got)
	}
	for _, x := range v.ViolationRecords() {
		if x.Class != "never-held-reply" {
			t.Errorf("violation %q has class %q", x.Detail, x.Class)
		}
	}
}
