package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/wire"
)

// The wire_replay workload. Set-up runs a live in-process mesh over
// localhost UDP — loopback only: link rates and wire latency are not
// measurable here — through a drop-injecting proxy, recording every
// node's capture in memory. The timed part replays the captures through
// wire.Replay a fixed number of times: the node's per-datagram CPU path
// (decode, driver discipline, agent, encode) with no sockets, no sleeps
// and no simulator fan-out.

const (
	meshPackets      = 1500
	meshPeriod       = 5 * time.Millisecond
	meshSession      = 200 * time.Millisecond
	meshSourceLinger = 2 * time.Second
	meshDropProb     = 0.10
	// replaysPerRound is fixed, not timed, so a round is the same work
	// on both sides of a comparison; 750 keeps a round above eight
	// seconds here.
	replaysPerRound = 750
)

// meshParents is the mesh topology: source 0, routers 1 and 2, receivers
// 3 to 6.
var meshParents = []topology.NodeID{topology.None, 0, 0, 1, 1, 2, 2}

// liveStats summarizes the live mesh run that produced the captures.
type liveStats struct {
	WallS                       float64
	Sent, Received              uint64
	Forwarded, Dropped          uint64
	DecodeErrors, Completed     int
	Recoveries                  int
	RecoveryP50MS               float64
	RecoveryTailMS, RecoveryPct float64
}

// wireInputs is what set-up produces for wire_replay.
type wireInputs struct {
	Nodes    []topology.NodeID
	Raw      [][]byte
	Captures []*wire.Capture
	Live     liveStats
	// Records and Recvs count one replay of every capture.
	Records, Recvs uint64
	// Failures lists mesh nodes that did not complete.
	Failures []string
}

// captureMesh runs the live mesh with packets data packets and parses
// the captures.
func captureMesh(seed int64, packets int) (*wireInputs, error) {
	tree, err := topology.New(meshParents)
	if err != nil {
		return nil, err
	}
	params := srm.DefaultParams()
	params.SessionPeriod = meshSession
	// Every node's virtual clock starts when its own goroutine enters Run,
	// so the clocks differ by the goroutines' start skew, and the one-way
	// estimator reads that skew as distance. When a session message from a
	// peer whose clock is ahead arrives fast, the estimate is negative, the
	// agents fall back to the 500 ms default distance for that peer until
	// its next session message, and its repairs are scheduled half a second
	// out; on a busy host about one capture in seventy then left a late loss
	// unrecovered when the source's linger ran out. Echo-RTT needs no common
	// clock; it is what cesrm-node uses between processes.
	params.DistanceMode = srm.DistEchoRTT
	in := &wireInputs{Nodes: append([]topology.NodeID{tree.Root()}, tree.Receivers()...)}

	proxy, err := wire.NewProxy("127.0.0.1:0", meshDropProb, seed)
	if err != nil {
		return nil, err
	}
	nodes := make([]*wire.Node, len(in.Nodes))
	bufs := make([]*bytes.Buffer, len(in.Nodes))
	closeAll := func() {
		for _, n := range nodes {
			if n != nil {
				n.Transport().Close()
			}
		}
		proxy.Close()
	}
	for i, id := range in.Nodes {
		bufs[i] = &bytes.Buffer{}
		nodes[i], err = wire.NewNode(wire.NodeConfig{
			Tree:         tree,
			ID:           id,
			Protocol:     wire.ProtocolCESRM,
			Seed:         seed,
			NumPackets:   packets,
			Period:       meshPeriod,
			SRM:          params,
			SourceLinger: meshSourceLinger,
		}, "127.0.0.1:0", bufs[i])
		if err == nil {
			err = proxy.SetPeer(id, nodes[i].Transport().LocalAddr().String())
		}
		if err == nil {
			err = nodes[i].Transport().SetProxy(proxy.LocalAddr().String())
		}
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		proxy.Serve()
	}()

	started := time.Now()
	results := make([]wire.Result, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *wire.Node) {
			defer wg.Done()
			results[i], errs[i] = n.RunFor(context.Background(), 10*time.Second)
		}(i, n)
	}
	wg.Wait()
	in.Live.WallS = time.Since(started).Seconds()
	// Run closed every node's socket; closing the proxy ends Serve.
	proxy.Close()
	<-served
	in.Live.Forwarded, in.Live.Dropped = proxy.Stats()

	var latencies []float64
	for i, id := range in.Nodes {
		if errs[i] != nil {
			return nil, fmt.Errorf("mesh node %d: %w", id, errs[i])
		}
		res := results[i]
		in.Live.Sent += res.DatagramsSent
		in.Live.Received += res.DatagramsReceived
		in.Live.DecodeErrors += res.DecodeErrors
		if res.Completed && res.Stopped {
			in.Live.Completed++
		} else {
			in.Failures = append(in.Failures, fmt.Sprintf("mesh node %d: completed=%v stopped=%v", id, res.Completed, res.Stopped))
		}
		raw := bufs[i].Bytes()
		c, err := wire.ReadCapture(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("mesh node %d: capture: %w", id, err)
		}
		in.Raw = append(in.Raw, raw)
		in.Captures = append(in.Captures, c)
		in.Records += uint64(len(c.Records))
		detected := map[int]int64{}
		for _, rec := range c.Records {
			switch {
			case rec.Kind == "recv":
				in.Recvs++
			case rec.Event == nil:
			case rec.Event.Kind == stats.EventLossDetected:
				detected[rec.Event.Seq] = rec.AtNS
			case rec.Event.Kind == stats.EventRecovered:
				if at, ok := detected[rec.Event.Seq]; ok {
					latencies = append(latencies, float64(rec.AtNS-at)/1e6)
				}
			}
		}
	}
	in.Live.Recoveries = len(latencies)
	in.Live.RecoveryP50MS = median(latencies)
	in.Live.RecoveryPct, in.Live.RecoveryTailMS = tailPercentile(latencies)
	return in, nil
}

// replayOnce replays every capture once; a replay that errors or
// diverges is a failed operation.
func replayOnce(in *wireInputs, p *passResult, probe func()) {
	for i, c := range in.Captures {
		p.Attempted++
		report, err := wire.Replay(c)
		// The replayed stream is at its longest here, and with it the heap.
		probe()
		switch {
		case err != nil:
			p.fail("replay of node %d: %v", in.Nodes[i], err)
		case !report.OK():
			p.fail("replay of node %d diverged: %s", in.Nodes[i], report.Divergences[0])
		}
	}
}

// runReplayRound is wire_replay's timed pass.
func runReplayRound(in *wireInputs, replays int, probe *hostProbe) *passResult {
	p := &passResult{}
	m := startMeter(probe)
	for r := 0; r < replays; r++ {
		replayOnce(in, p, m.Tick)
	}
	p.resources = m.Stop()
	p.Work = uint64(replays) * in.Recvs
	p.Records = uint64(replays) * in.Records
	return p
}

// wireSpans are the wire tier's per-layer numbers, each a span around
// one public entry point over the captured traffic.
type wireSpans struct {
	ReadCaptureNS  float64 // per record
	EncodeNS       float64 // per packet
	DecodeNS       float64 // per packet
	CodecAllocs    float64 // heap allocations per encode or decode
	DriverP50US    float64
	DriverTailUS   float64
	DriverTailPct  float64
	driverFailures []string
}

// measureWireSpans times capture parsing, the packet codec over every
// captured datagram, and a bare driver's inject-to-deliver latency.
// scale shrinks the loop lengths for the smoke tests.
func measureWireSpans(in *wireInputs, scale float64) (wireSpans, error) {
	var s wireSpans
	started := time.Now()
	for _, raw := range in.Raw {
		if _, err := wire.ReadCapture(bytes.NewReader(raw)); err != nil {
			return s, err
		}
	}
	s.ReadCaptureNS = float64(time.Since(started)) / float64(in.Records)

	var datagrams [][]byte
	for _, c := range in.Captures {
		for _, rec := range c.Records {
			if rec.Data == "" {
				continue
			}
			data, err := hex.DecodeString(rec.Data)
			if err != nil {
				return s, err
			}
			datagrams = append(datagrams, data)
		}
	}
	if len(datagrams) == 0 {
		return s, fmt.Errorf("captures hold no datagrams")
	}
	// Enough repetitions that each loop runs for a good fraction of a
	// second whatever the capture's size.
	reps := 1 + scaled(2_000_000, scale, 20_000)/len(datagrams)
	packets := make([]*netsim.Packet, len(datagrams))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	started = time.Now()
	for r := 0; r < reps; r++ {
		for i, data := range datagrams {
			p, err := netsim.DecodePacket(data)
			if err != nil {
				return s, err
			}
			packets[i] = p
		}
	}
	decode := time.Since(started)
	var buf []byte
	started = time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range packets {
			var err error
			if buf, err = netsim.EncodePacket(buf[:0], p); err != nil {
				return s, err
			}
		}
	}
	encode := time.Since(started)
	runtime.ReadMemStats(&mem1)
	ops := float64(reps * len(datagrams))
	s.DecodeNS = float64(decode) / ops
	s.EncodeNS = float64(encode) / ops
	s.CodecAllocs = float64(mem1.Mallocs-mem0.Mallocs) / (2 * ops)

	// A bare driver: no sockets, no agent, one datagram in flight at a
	// time (a closed loop, so no backlog builds). Each datagram is stamped
	// as it is injected and the deliver callback reads the clock again, so
	// the difference is the driver's own hand-off and engine discipline.
	injected := scaled(20_000, scale, 200)
	latencies := make([]float64, 0, injected)
	var stamp time.Time
	// Buffered, so a delivery that arrives after the injector gave up does
	// not block the driver's goroutine.
	delivered := make(chan struct{}, 1)
	driver := wire.NewDriver(sim.NewEngine(), func(sim.Time, []byte) {
		latencies = append(latencies, float64(time.Since(stamp))/1e3)
		delivered <- struct{}{}
	})
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		driver.Run()
	}()
	timeout := time.After(30 * time.Second)
inject:
	for i := 0; i < injected; i++ {
		stamp = time.Now()
		driver.Inject(stamp, datagrams[i%len(datagrams)])
		select {
		case <-delivered:
		case <-timeout:
			s.driverFailures = append(s.driverFailures, fmt.Sprintf("bare driver delivered %d of %d datagrams", i, injected))
			break inject
		}
	}
	driver.Halt()
	<-ran
	s.DriverP50US = median(latencies)
	s.DriverTailPct, s.DriverTailUS = tailPercentile(latencies)
	return s, nil
}
