// Command cesrm-node runs one member of a CESRM/SRM multicast group
// over real UDP sockets, with the deterministic simulator available as
// a conformance oracle for captured runs.
//
// Modes:
//
//	node     run one group member (the default)
//	proxy    run the drop-injecting loopback forwarder
//	conform  replay capture files through the simulator and report
//	         divergences
//
// A three-member localhost session (tree file "-1 0 0 1 2": source 0,
// receivers 3 and 4):
//
//	cesrm-node -mode proxy -bind 127.0.0.1:7000 -drop 0.2 -drop-seed 7 \
//	    -peers 0=127.0.0.1:7100,3=127.0.0.1:7103,4=127.0.0.1:7104 &
//	cesrm-node -tree tree.txt -id 0 -bind 127.0.0.1:7100 \
//	    -via 127.0.0.1:7000 -capture node0.ndjson &
//	cesrm-node -tree tree.txt -id 3 -bind 127.0.0.1:7103 \
//	    -via 127.0.0.1:7000 -capture node3.ndjson &
//	cesrm-node -tree tree.txt -id 4 -bind 127.0.0.1:7104 \
//	    -via 127.0.0.1:7000 -capture node4.ndjson &
//	wait  # nodes exit on their own; then certify the run:
//	cesrm-node -mode conform node0.ndjson node3.ndjson node4.ndjson
//
// Without a proxy, give each node the full address book via -peers.
// Exit status: 0 on success, 1 when a node fails to complete its stream
// or a capture diverges from its replay, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cesrm-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode = fs.String("mode", "node", "node | proxy | conform")

		treePath = fs.String("tree", "", "tree file (parent vector; -1 marks the root)")
		id       = fs.Int("id", -1, "this node's id in the tree")
		bind     = fs.String("bind", "127.0.0.1:0", "UDP bind address")
		peers    = fs.String("peers", "", "peer address book: id=host:port,id=host:port,...")
		via      = fs.String("via", "", "route all traffic through the proxy at this address")
		capture  = fs.String("capture", "", "write an NDJSON capture to this file")

		protocol = fs.String("protocol", "cesrm", "protocol: srm | cesrm")
		distance = fs.String("distance", "echo-rtt",
			"distance estimator: echo-rtt (no clock sync needed; the default for real "+
				"processes, whose virtual-clock epochs differ) | one-way (assumes synchronized clocks)")
		seed     = fs.Int64("seed", 1, "shared group seed")
		packets  = fs.Int("packets", 32, "number of packets in the source stream")
		period   = fs.Duration("period", 40*time.Millisecond, "source inter-packet gap")
		warmup   = fs.Duration("warmup", 0, "delay before the first data packet (0 = 3 session periods)")
		session  = fs.Duration("session-period", time.Second, "session message period")
		linger   = fs.Duration("linger", 0, "receiver linger after completion (0 = 2 session periods)")
		srcLing  = fs.Duration("source-linger", 0, "source linger after last transmission (0 = 10 session periods)")
		maxRun   = fs.Duration("max-run", 0, "hard stop (0 = derived from the schedule)")
		reorder  = fs.Duration("reorder", 0, "CESRM reorder delay")
		cacheCap = fs.Int("cache", 0, "CESRM cache capacity (0 = default)")

		drop     = fs.Float64("drop", 0.2, "proxy drop probability for data and repair packets")
		dropSeed = fs.Int64("drop-seed", 1, "proxy drop RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch *mode {
	case "node":
		err = runNode(nodeOpts{
			treePath: *treePath, id: *id, bind: *bind, peers: *peers, via: *via,
			capture: *capture, protocol: *protocol, distance: *distance, seed: *seed, packets: *packets,
			period: *period, warmup: *warmup, session: *session, linger: *linger,
			srcLinger: *srcLing, maxRun: *maxRun, reorder: *reorder, cacheCap: *cacheCap,
		}, stdout, stderr)
	case "proxy":
		err = runProxy(*bind, *peers, *drop, *dropSeed, stderr)
	case "conform":
		err = runConform(fs.Args(), stdout)
	default:
		fmt.Fprintf(stderr, "cesrm-node: unknown mode %q\n", *mode)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "cesrm-node: %v\n", err)
		return 1
	}
	return 0
}

type nodeOpts struct {
	treePath, bind, peers, via, capture, protocol string
	distance                                      string
	id, packets, cacheCap                         int
	seed                                          int64
	period, warmup, session, linger               time.Duration
	srcLinger, maxRun, reorder                    time.Duration
}

func runNode(o nodeOpts, stdout, stderr io.Writer) error {
	if o.treePath == "" {
		return fmt.Errorf("node mode requires -tree")
	}
	tree, err := wire.LoadTree(o.treePath)
	if err != nil {
		return err
	}
	params := srm.DefaultParams()
	params.SessionPeriod = o.session
	switch o.distance {
	case "echo-rtt":
		params.DistanceMode = srm.DistEchoRTT
	case "one-way":
		params.DistanceMode = srm.DistOneWay
	default:
		return fmt.Errorf("unknown distance mode %q (echo-rtt | one-way)", o.distance)
	}
	cfg := wire.NodeConfig{
		Tree:          tree,
		ID:            topology.NodeID(o.id),
		Protocol:      wire.Protocol(o.protocol),
		Seed:          o.seed,
		NumPackets:    o.packets,
		Period:        o.period,
		Warmup:        o.warmup,
		SRM:           params,
		ReorderDelay:  o.reorder,
		CacheCapacity: o.cacheCap,
		Linger:        o.linger,
		SourceLinger:  o.srcLinger,
		MaxRunTime:    o.maxRun,
	}
	// Malformed input is refused before a socket is bound.
	addrs, err := wire.ParsePeers(o.peers)
	if err != nil {
		return err
	}

	var captureW *os.File
	if o.capture != "" {
		captureW, err = os.Create(o.capture)
		if err != nil {
			return err
		}
		defer captureW.Close()
	}
	node, err := wire.NewNode(cfg, o.bind, writerOrNil(captureW))
	if err != nil {
		return err
	}
	for pid, addr := range addrs {
		if pid == cfg.ID {
			continue
		}
		if err := node.Transport().SetPeer(pid, addr); err != nil {
			return err
		}
	}
	if o.via != "" {
		if err := node.Transport().SetProxy(o.via); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "cesrm-node: node %d (%s) listening on %s\n",
		cfg.ID, node.Config().Protocol, node.Transport().LocalAddr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	res, err := node.RunFor(ctx, 30*time.Second)
	if err != nil {
		return err
	}
	out := json.NewEncoder(stdout)
	out.SetIndent("", "  ")
	if err := out.Encode(res); err != nil {
		return err
	}
	if !res.Completed {
		return fmt.Errorf("node %d did not complete its stream", cfg.ID)
	}
	return nil
}

// writerOrNil avoids handing NewNode a non-nil interface holding a nil
// *os.File.
func writerOrNil(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}

func runProxy(bind, peers string, drop float64, dropSeed int64, stderr io.Writer) error {
	addrs, err := wire.ParsePeers(peers)
	if err != nil {
		return err
	}
	if len(addrs) == 0 {
		return fmt.Errorf("proxy mode requires -peers")
	}
	proxy, err := wire.NewProxy(bind, drop, dropSeed)
	if err != nil {
		return err
	}
	for id, addr := range addrs {
		if err := proxy.SetPeer(id, addr); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "cesrm-node: proxy on %s, drop=%.2f seed=%d, %d peers\n",
		proxy.LocalAddr(), drop, dropSeed, len(addrs))
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		proxy.Close()
	}()
	proxy.Serve()
	forwarded, dropped := proxy.Stats()
	fmt.Fprintf(stderr, "cesrm-node: proxy done: forwarded=%d dropped=%d\n", forwarded, dropped)
	return nil
}

// runConform replays each capture and prints one verdict line per file,
// followed by its divergences, to stdout.
func runConform(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("conform mode requires capture files as arguments")
	}
	failed := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		c, err := wire.ReadCapture(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		report, err := wire.Replay(c)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		status := "CONFORMS"
		if !report.OK() {
			status = "DIVERGES"
			failed++
		}
		fmt.Fprintf(stdout, "%s: node %d %s: %d sends, %d events, %d recoveries (%d expedited), completed=%v\n",
			path, report.Node, status, report.Sends, report.Events,
			report.Recoveries, report.Expedited, c.End.Completed)
		for _, d := range report.Divergences {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d captures diverge from their deterministic replay", failed, len(paths))
	}
	return nil
}
