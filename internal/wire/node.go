package wire

import (
	"context"
	"fmt"
	"io"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// Node is one live wire-mode process: engine + driver + UDP transport +
// protocol session, optionally recording a capture.
type Node struct {
	cfg       NodeConfig
	eng       *sim.Engine
	net       *Network
	transport *Transport
	driver    *Driver
	capture   *CaptureWriter
	sess      *session
	// dec decodes every inbound datagram in place: Deliver is synchronous
	// and keeps nothing of the packet (DESIGN.md §15).
	dec netsim.PacketDecoder
	// decodeErrs counts inbound datagrams that failed to decode (stray
	// traffic, corruption); they are dropped like any lost packet.
	decodeErrs int
}

// Result summarizes a completed run.
type Result struct {
	// End is the final virtual time.
	End sim.Time
	// Completed reports the node-local completion predicate (stream
	// fully classified / fully transmitted) at shutdown.
	Completed bool
	// Stopped reports an orderly self-stop (completion linger or
	// MaxRunTime) as opposed to an external halt.
	Stopped bool
	// DecodeErrors counts undecodable inbound datagrams.
	DecodeErrors int
	// SessionRejects counts decodable input of every message kind (the
	// name predates the non-session kinds) that the agent refused because
	// it named a node outside the tree (srm.Agent.SessionRejects).
	SessionRejects int
	// SeqRejects counts decodable input the agent refused because it named
	// a sequence number outside [0, srm.MaxSeq] (srm.Agent.SeqRejects).
	SeqRejects int
	// DatagramsSent and DatagramsReceived count the socket traffic.
	DatagramsSent, DatagramsReceived uint64
}

// NewNode builds a node bound to bind (e.g. "127.0.0.1:0"). Peer
// addresses may be registered afterwards with Transport().SetPeer —
// they are only needed once Run starts. captureW, when non-nil,
// receives the NDJSON capture; the header is written immediately.
func NewNode(cfg NodeConfig, bind string, captureW io.Writer) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	transport, err := NewTransport(cfg.ID, bind)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, eng: sim.NewEngine(), transport: transport}
	n.net = NewNetwork(cfg.Tree, cfg.Net, cfg.ID, n.eng.Now)
	n.net.SetSend(func(dst topology.NodeID, data []byte) {
		// Datagram loss is the protocol's bread and butter; a send
		// error degrades into exactly that.
		_ = transport.Send(dst, data)
	})

	if captureW != nil {
		cw, err := NewCaptureWriter(captureW, cfg)
		if err != nil {
			transport.Close()
			return nil, err
		}
		n.capture = cw
		n.net.SetOnSend(cw.Send)
	}

	obs := stats.NewRecorder(n.eng.Now)
	obs.SetKeep(false)
	if n.capture != nil {
		obs.SetSink(n.capture.Obs)
	}
	sess, err := newSession(n.eng, n.net, cfg, obs)
	if err != nil {
		transport.Close()
		return nil, err
	}
	n.sess = sess
	n.driver = NewDriver(n.eng, n.deliver)
	return n, nil
}

// Transport exposes the UDP layer for peer/proxy registration.
func (n *Node) Transport() *Transport { return n.transport }

// Config returns the node's default-filled configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// deliver decodes one datagram and hands it to the agent, recording it
// first so the capture reflects exactly what the agent saw.
func (n *Node) deliver(now sim.Time, data []byte) {
	p, err := n.dec.Decode(data)
	if err != nil {
		n.decodeErrs++
		return
	}
	if n.capture != nil {
		n.capture.Recv(now, data)
	}
	n.net.Host().Deliver(now, p)
}

// Run drives the node until it stops itself (completion or MaxRunTime)
// or ctx is cancelled. It closes the capture (when recording) and the
// socket before returning.
func (n *Node) Run(ctx context.Context) (Result, error) {
	peers := n.cfg.Members()
	if n.transport.proxy == nil {
		for _, m := range peers {
			if m != n.cfg.ID {
				if _, ok := n.transport.peers[m]; !ok {
					return Result{}, fmt.Errorf("wire: member %d has no registered address", m)
				}
			}
		}
	}

	go n.transport.ReadLoop(n.driver.Inject)
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			n.driver.Halt()
		case <-watchDone:
		}
	}()

	end := n.driver.Run()
	close(watchDone)
	n.transport.Close()

	res := Result{
		End:            end,
		Completed:      n.sess.complete(),
		Stopped:        n.sess.stopped,
		DecodeErrors:   n.decodeErrs,
		SessionRejects: n.sess.inner.SessionRejects(),
		SeqRejects:     n.sess.inner.SeqRejects(),
	}
	res.DatagramsSent, res.DatagramsReceived = n.transport.Stats()
	var err error
	if n.capture != nil {
		err = n.capture.End(end, res.Stopped, res.Completed)
	}
	if ctxErr := ctx.Err(); ctxErr != nil && err == nil && !res.Stopped {
		err = ctxErr
	}
	return res, err
}

// RunFor is Run with a wall-clock timeout safety net on top of the
// virtual MaxRunTime (they coincide in normal operation, since virtual
// time tracks the wall; the extra margin covers a wedged peer).
func (n *Node) RunFor(parent context.Context, extra time.Duration) (Result, error) {
	ctx, cancel := context.WithTimeout(parent, n.cfg.MaxRunTime+extra)
	defer cancel()
	return n.Run(ctx)
}
