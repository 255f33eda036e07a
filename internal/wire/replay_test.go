package wire

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// loadFixture parses one committed capture. Every call returns its own
// copy, records and events included, so tests may edit it freely.
func loadFixture(t testing.TB, id topology.NodeID) *Capture {
	t.Helper()
	f, err := os.Open(fixturePath(id))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadCapture(f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// nthRecord returns the index in c.Records of the n-th record (from 0)
// of the given kind.
func nthRecord(t testing.TB, c *Capture, kind string, n int) int {
	t.Helper()
	for i, rec := range c.Records {
		if rec.Kind != kind {
			continue
		}
		if n == 0 {
			return i
		}
		n--
	}
	t.Fatalf("capture has no %s record %d", kind, n)
	return -1
}

// replayMutation is one way of tampering with a committed capture.
type replayMutation struct {
	name    string
	fixture topology.NodeID
	mutate  func(t *testing.T, c *Capture)
}

// obsFieldMutation changes one field of node 3's first recovery event
// (seq 2, recovered by a reply to its own request).
func obsFieldMutation(field string, edit func(ev *stats.Event)) replayMutation {
	return replayMutation{
		name:    "obs " + field,
		fixture: 3,
		mutate: func(t *testing.T, c *Capture) {
			for i, rec := range c.Records {
				if rec.Kind == recKindObs && rec.Event.Kind == stats.EventRecovered {
					edit(c.Records[i].Event)
					return
				}
			}
			t.Fatal("fixture has no recovery event")
		},
	}
}

func replayMutations() []replayMutation {
	return []replayMutation{
		{"send hex nibble flipped", 0, func(t *testing.T, c *Capture) {
			rec := &c.Records[nthRecord(t, c, recKindSend, 5)]
			flipped := []byte(rec.Data)
			flipped[9] ^= 1 // '0' <-> '1', '8' <-> '9', ...: still a hex digit
			rec.Data = string(flipped)
		}},
		{"send hex upper-cased", 0, func(t *testing.T, c *Capture) {
			rec := &c.Records[nthRecord(t, c, recKindSend, 0)]
			if rec.Data == strings.ToUpper(rec.Data) {
				t.Fatal("send has no hex letters to upper-case")
			}
			rec.Data = strings.ToUpper(rec.Data)
		}},
		{"send at_ns +1", 0, func(t *testing.T, c *Capture) {
			c.Records[nthRecord(t, c, recKindSend, 0)].AtNS++
		}},
		obsFieldMutation("kind", func(ev *stats.Event) { ev.Kind = stats.EventLossDetected }),
		obsFieldMutation("host", func(ev *stats.Event) { ev.Host = 4 }),
		obsFieldMutation("source", func(ev *stats.Event) { ev.Source = 3 }),
		obsFieldMutation("seq", func(ev *stats.Event) { ev.Seq++ }),
		obsFieldMutation("round", func(ev *stats.Event) { ev.Round = 1 }),
		obsFieldMutation("expedited", func(ev *stats.Event) { ev.Expedited = !ev.Expedited }),
		obsFieldMutation("own_requests", func(ev *stats.Event) { ev.OwnRequests++ }),
		obsFieldMutation("reschedules", func(ev *stats.Event) { ev.Reschedules++ }),
		obsFieldMutation("requestor", func(ev *stats.Event) { ev.Requestor = topology.None }),
		obsFieldMutation("replier", func(ev *stats.Event) { ev.Replier = 4 }),
		{"obs without event", 4, func(t *testing.T, c *Capture) {
			c.Records[nthRecord(t, c, recKindObs, 3)].Event = nil
		}},
		{"send and obs kinds swapped", 4, func(t *testing.T, c *Capture) {
			i := nthRecord(t, c, recKindSend, 2)
			if c.Records[i+1].Kind != recKindObs {
				t.Fatal("send is not followed by its obs record")
			}
			c.Records[i].Kind, c.Records[i+1].Kind = recKindObs, recKindSend
		}},
		{"one send deleted", 4, func(t *testing.T, c *Capture) {
			i := nthRecord(t, c, recKindSend, 8)
			c.Records = append(c.Records[:i], c.Records[i+1:]...)
		}},
		{"one record appended", 3, func(t *testing.T, c *Capture) {
			c.Records = append(c.Records, Record{Kind: recKindSend, AtNS: c.End.AtNS, Data: "00"})
		}},
		{"25 records shifted", 0, func(t *testing.T, c *Capture) {
			shifted := 0
			for i := range c.Records {
				if c.Records[i].Kind != recKindRecv && shifted < 25 {
					c.Records[i].AtNS--
					shifted++
				}
			}
			if shifted != 25 {
				t.Fatalf("shifted only %d records", shifted)
			}
		}},
	}
}

// TestReplayMutations pins the streaming, structural comparison to what
// rendering both streams and comparing the strings reported: every row's
// Report — counts, divergence positions, captured and replayed
// renderings, the cap of twenty, the trailing-record form with an empty
// Got — was recorded from that implementation.
func TestReplayMutations(t *testing.T) {
	for _, m := range replayMutations() {
		t.Run(m.name, func(t *testing.T) {
			c := loadFixture(t, m.fixture)
			m.mutate(t, c)
			report, err := Replay(c)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := replayMutationWant[m.name]
			if !ok {
				t.Fatal("no recorded outcome for this mutation")
			}
			if !reflect.DeepEqual(*report, want) {
				t.Errorf("report:\n got  %+v\n want %+v", *report, want)
			}
		})
	}
}

// TestReplayAllocationAmortised: a replay allocates for building the
// node — engine, agent, recorder, a per-replay constant — and for what
// the agent keeps per stream, but nothing per record: no rendered
// strings, no decoded messages, no arrival closures, no hex round trips.
// Render-and-compare cost about 6.4 allocations a record.
func TestReplayAllocationAmortised(t *testing.T) {
	c := loadFixture(t, 3)
	var failed error
	allocs := testing.AllocsPerRun(1, func() {
		report, err := Replay(c)
		if err == nil && !report.OK() {
			err = fmt.Errorf("diverged: %s", report.Divergences[0])
		}
		if err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	// Building the node costs about 40 objects and the agent's per-stream
	// and per-loss state about 60 more on this fixture.
	const perReplay = 150
	if limit := perReplay + 0.1*float64(len(c.Records)); allocs > limit {
		t.Errorf("replay of %d records allocated %.0f objects, want at most %.0f",
			len(c.Records), allocs, limit)
	}
}

// TestReplayHostilePacketCount: a capture whose header claims two
// billion packets — a header and a footer are all `cesrm-node -mode
// conform` needs to be handed — must cost what any other header costs.
// The source's stream is one train record, not an event per packet, so
// the replay runs to the footer, reports the sends the capture lacks,
// and returns.
func TestReplayHostilePacketCount(t *testing.T) {
	raw, err := os.ReadFile(fixturePath(0))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	header := strings.Replace(lines[0], `"packets":12,`, `"packets":2000000000,`, 1)
	if header == lines[0] {
		t.Fatal("fixture header has no packet count to inflate")
	}
	// At two billion events a regression would take the host's memory
	// with it: crash this process long before that.
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var m runtime.MemStats
				if runtime.ReadMemStats(&m); m.HeapAlloc > 256<<20 {
					panic("replaying a two-line capture grew the heap past 256 MB")
				}
			}
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := ReadCapture(strings.NewReader(header + "\n" + lines[len(lines)-1] + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Replay(c)
	runtime.ReadMemStats(&after)
	if err == nil && report.OK() {
		t.Error("a source's capture holding no sends conforms")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading and replaying a two-line capture allocated %d bytes", grew)
	}
}

// BenchmarkReplay replays the three committed captures, each a node's
// whole lossy run: per arrival the hex decode, the packet decode, the
// driver's one-packet discipline and the agent, and per send the encode
// and the conformance check. The captures are read once, outside the
// timer.
func BenchmarkReplay(b *testing.B) {
	var captures []*Capture
	for _, id := range members(testTree(b)) {
		captures = append(captures, loadFixture(b, id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range captures {
			report, err := Replay(c)
			if err != nil {
				b.Fatal(err)
			}
			if !report.OK() {
				b.Fatalf("node %d: %s", report.Node, report.Divergences[0])
			}
		}
	}
}
