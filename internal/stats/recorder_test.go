package stats

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/srm"
)

func TestRecorderCapturesOrderedStream(t *testing.T) {
	var now sim.Time
	r := NewRecorder(func() sim.Time { return now })

	r.SessionSent(2)
	now = sim.Time(time.Second)
	r.LossDetected(3, 0, 7, now)
	r.RequestSent(3, 0, 7, 0)
	now = sim.Time(2 * time.Second)
	r.ExpRequestSent(4, 0, 8)
	r.ReplySent(0, 0, 7, true)
	r.Recovered(3, 0, 7, now, srm.RecoveryInfo{Expedited: true, Requestor: 3, Replier: 0, OwnRequests: 1})

	evs := r.Events()
	if r.Len() != 6 || len(evs) != 6 {
		t.Fatalf("captured %d events, want 6", len(evs))
	}
	wantKinds := []EventKind{EventSessionSent, EventLossDetected, EventRequestSent,
		EventExpRequestSent, EventReplySent, EventRecovered}
	for i, k := range wantKinds {
		if evs[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, evs[i].Kind, k)
		}
	}
	if evs[1].At != sim.Time(time.Second) || evs[1].Host != 3 || evs[1].Seq != 7 {
		t.Fatalf("loss event = %+v", evs[1])
	}
	if evs[2].At != sim.Time(time.Second) {
		t.Fatalf("request timestamped %v via clock, want 1s", evs[2].At)
	}
	last := evs[5]
	if !last.Expedited || last.Requestor != 3 || last.Replier != 0 || last.OwnRequests != 1 {
		t.Fatalf("recovered event dropped RecoveryInfo: %+v", last)
	}
}

func TestRecorderNilClock(t *testing.T) {
	r := NewRecorder(nil)
	r.SessionSent(1)
	if r.Events()[0].At != 0 {
		t.Fatalf("nil-clock timestamp = %v, want 0", r.Events()[0].At)
	}
}

func TestRecorderWriteNDJSON(t *testing.T) {
	r := NewRecorder(func() sim.Time { return sim.Time(250 * time.Millisecond) })
	r.LossDetected(3, 0, 7, sim.Time(time.Second))
	r.RequestSent(3, 0, 7, 2)
	r.SessionSent(5)

	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	if lines[0]["kind"] != "loss-detected" || lines[0]["at_ns"] != float64(time.Second) {
		t.Fatalf("first line = %v", lines[0])
	}
	if lines[1]["round"] != float64(2) {
		t.Fatalf("request round = %v, want 2", lines[1]["round"])
	}
	if lines[2]["kind"] != "session" || lines[2]["host"] != float64(5) {
		t.Fatalf("session line = %v", lines[2])
	}
}

// TestReadEventsNDJSONInvertsWrite: every kind and field survives the
// round trip, and a line the writer never produces is refused.
func TestReadEventsNDJSONInvertsWrite(t *testing.T) {
	r := NewRecorder(func() sim.Time { return sim.Time(3 * time.Second) })
	r.SessionSent(2)
	r.LossDetected(3, 0, 7, sim.Time(time.Second))
	r.RequestSent(3, 0, 7, 1)
	r.ExpRequestSent(4, 0, 8)
	r.ReplySent(0, 0, 7, true)
	r.Recovered(3, 0, 7, sim.Time(2*time.Second), srm.RecoveryInfo{Expedited: true, Requestor: 3, Replier: 0, OwnRequests: 2, Reschedules: 1})
	r.RequestAbandoned(4, 0, 8, 5)
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEventsNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Events(); len(got) != len(want) {
		t.Fatalf("read %d events, wrote %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("event %d read as %+v, written as %+v", i, got[i], want[i])
			}
		}
	}
	for _, bad := range []string{`{"kind":"nap","at_ns":1}`, `{"kind":`} {
		if _, err := ReadEventsNDJSON(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
