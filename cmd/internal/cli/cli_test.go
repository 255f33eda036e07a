package cli

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"cesrm/internal/experiment"
	"cesrm/internal/netsim"
)

func TestScalesSet(t *testing.T) {
	var s Scales
	for _, v := range []string{"0.1", "1, 5", "0.005"} {
		if err := s.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if want := (Scales{0.1, 1, 5, 0.005}); !reflect.DeepEqual(s, want) {
		t.Fatalf("scales = %v, want %v", s, want)
	}
	if got := s.String(); got != "0.1,1,5,0.005" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"0", "-0.5", "1,0", "x", ""} {
		var s Scales
		if err := s.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted: %v", bad, s)
		}
	}
}

func TestNamesSet(t *testing.T) {
	var n Names
	for _, v := range []string{"wrn", " ucb , RFV9605"} {
		if err := n.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if want := (Names{"wrn", "ucb", "RFV9605"}); !reflect.DeepEqual(n, want) {
		t.Fatalf("names = %v, want %v", n, want)
	}
	if got := n.String(); got != "wrn,ucb,RFV9605" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "wrn,", " "} {
		var n Names
		if err := n.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted: %v", bad, n)
		}
	}
}

func TestParseIndices(t *testing.T) {
	for _, c := range []struct {
		list string
		want []int
	}{
		{"", nil},
		{"4", []int{4}},
		{"13, 2,4", []int{13, 2, 4}},
		{"99,0", []int{99, 0}},
	} {
		got, err := ParseIndices(c.list)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseIndices(%q) = %v, %v; want %v", c.list, got, err, c.want)
		}
	}
	for _, bad := range []string{"x", "1,,2", "1.5"} {
		if got, err := ParseIndices(bad); err == nil {
			t.Errorf("ParseIndices(%q) accepted: %v", bad, got)
		}
	}
}

func TestSelectTraces(t *testing.T) {
	for _, c := range []struct {
		list  string
		names Names
		want  []int
	}{
		{"", nil, nil},
		// The union comes out in catalog order, without repeats.
		{"13,2", Names{"ucb"}, []int{2, 3, 13}},
		{"", Names{"rfv"}, []int{1, 2}},
		{"2", Names{"RFV960508"}, []int{2}},
		// An index outside the catalog is kept, last, for the caller
		// to report.
		{"99,4", Names{"wrn9512"}, []int{4, 10, 11, 12, 13, 14, 99}},
	} {
		got, err := SelectTraces(c.list, c.names)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("SelectTraces(%q, %v) = %v, %v; want %v", c.list, c.names, got, err, c.want)
		}
	}
	if _, err := SelectTraces("", Names{"nosuchtrace"}); err == nil {
		t.Error("a name that matches no trace accepted")
	}
	if _, err := SelectTraces("x", nil); err == nil {
		t.Error("a bad index list accepted")
	}
}

func TestAddRun(t *testing.T) {
	base := experiment.RunConfig{Net: netsim.DefaultConfig(), Seed: 1}
	set := base
	set.Net.LinkDelay = 30 * time.Millisecond
	set.LossyRecovery = true
	set.CESRM.RouterAssist = true
	for _, c := range []struct {
		args []string
		want experiment.RunConfig
	}{
		{nil, base},
		{[]string{"-delay", "30ms", "-lossy", "-router-assist"}, set},
	} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		got := AddRun(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("%v: RunConfig = %+v, want %+v", c.args, *got, c.want)
		}
	}
}
