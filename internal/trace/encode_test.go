package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cesrm/internal/topology"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	orig := tinyTrace(t)
	var buf bytes.Buffer
	if err := Marshal(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.Period != orig.Period {
		t.Fatalf("metadata changed: %q %v", got.Name, got.Period)
	}
	if got.NumPackets() != orig.NumPackets() || got.NumReceivers() != orig.NumReceivers() {
		t.Fatal("shape changed")
	}
	for r := range orig.Loss {
		for i := range orig.Loss[r] {
			if got.Loss[r][i] != orig.Loss[r][i] {
				t.Fatalf("loss[%d][%d] changed", r, i)
			}
		}
	}
	pv := got.Tree.ParentVector()
	for i, p := range orig.Tree.ParentVector() {
		if pv[i] != p {
			t.Fatal("tree changed")
		}
	}
}

func TestRoundTripGeneratedTrace(t *testing.T) {
	tr := MustGenerate(GenSpec{
		Name:         "roundtrip",
		Topology:     topology.GenSpec{Receivers: 9, Depth: 4},
		NumPackets:   3000,
		Period:       40 * time.Millisecond,
		TargetLosses: 900,
		Seed:         11,
	})
	var buf bytes.Buffer
	if err := Marshal(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLosses() != tr.TotalLosses() {
		t.Fatalf("losses %d != %d", got.TotalLosses(), tr.TotalLosses())
	}
	if got.MeanBurstLength() != tr.MeanBurstLength() {
		t.Fatal("burst structure changed by round trip")
	}
}

// corruptInputs are malformed traces Unmarshal must reject; FuzzUnmarshal
// starts from them.
var corruptInputs = map[string]string{
	"empty":         "",
	"bad header":    "not-a-trace\n",
	"truncated":     "cesrm-trace v1\nname x\n",
	"bad period":    "cesrm-trace v1\nname x\nperiod nope\nend\n",
	"bad packets":   "cesrm-trace v1\npackets ten\nend\n",
	"bad tree":      "cesrm-trace v1\ntree 0 0\nend\n",
	"tree garbage":  "cesrm-trace v1\ntree a b\nend\n",
	"early recv":    "cesrm-trace v1\nrecv 5\nend\n",
	"unknown field": "cesrm-trace v1\nbogus 1\nend\n",
	"short rle":     "cesrm-trace v1\nname x\nperiod 80ms\npackets 4\ntree -1 0 1 1\nrecv 2\nrecv 4\nend\n",
	"negative rle":  "cesrm-trace v1\nname x\nperiod 80ms\npackets 4\ntree -1 0 1 1\nrecv -4\nrecv 4\nend\n",
	"long rle":      "cesrm-trace v1\nname x\nperiod 80ms\npackets 4\ntree -1 0 1 1\nrecv 2 9223372036854775807 2\nrecv 4\nend\n",
	"lying header":  "cesrm-trace v1\nname x\nperiod 80ms\npackets 4000000000000\ntree -1 0 1 1\nrecv 4\nrecv 4\nend\n",
	"bomb":          "cesrm-trace v1\nname x\nperiod 80ms\npackets 4000000000000\ntree -1 0 1 1\nrecv 4000000000000\nrecv 4000000000000\nend\n",
}

func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	for name, in := range corruptInputs {
		if _, err := Unmarshal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestMarshalRejectsInvalidTrace(t *testing.T) {
	tr := tinyTrace(t)
	tr.Period = 0
	var buf bytes.Buffer
	if err := Marshal(&buf, tr); err == nil {
		t.Fatal("marshalled invalid trace")
	}
}

// packRow packs a dense loss row into a bitset.
func packRow(row []bool) []uint64 {
	out := make([]uint64, (len(row)+63)/64)
	for i, lost := range row {
		if lost {
			out[i>>6] |= 1 << (i & 63)
		}
	}
	return out
}

func TestPropertyRLERoundTrip(t *testing.T) {
	f := func(row []bool) bool {
		if len(row) == 0 {
			return true
		}
		want := packRow(row)
		got, err := rleDecode(rleEncode(want, len(row)), len(row))
		return err == nil && slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRLELeadingLoss(t *testing.T) {
	row := packRow([]bool{true, true, false})
	runs := rleEncode(row, 3)
	if !slices.Equal(runs, []int{0, 2, 1}) {
		t.Fatalf("leading-loss row must start with a zero run: got %v, want [0 2 1]", runs)
	}
	got, err := rleDecode(runs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, row) {
		t.Fatal("leading-loss round trip failed")
	}
}

// FuzzUnmarshal: no input panics the decoder, and whatever it accepts is
// a trace the encoder reproduces — Marshal's text survives
// Unmarshal ∘ Marshal byte for byte.
func FuzzUnmarshal(f *testing.F) {
	for _, in := range corruptInputs {
		f.Add([]byte(in))
	}
	// Small valid seeds: the engine minimizes every input that widens
	// coverage a byte at a time.
	f.Add([]byte("cesrm-trace v1\nname tiny\nperiod 80ms\npackets 4\ntree -1 0 1 1\nrecv 1 2 1\nrecv 2 1 1\nend\n"))
	f.Add([]byte("cesrm-trace v1\nname x\nperiod 80ms\npackets 70\ntree -1 0 1 1\nrecv 0 70\nrecv 63 2 5\nend\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Unmarshal(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Marshal(&first, tr); err != nil {
			t.Fatalf("accepted a trace that does not marshal: %v", err)
		}
		back, err := Unmarshal(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejected its own encoding: %v", err)
		}
		if err := Marshal(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding changed across a round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
