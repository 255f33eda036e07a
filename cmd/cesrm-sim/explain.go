package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"cesrm/internal/experiment"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// parseLoss reads -explain's host:seq.
func parseLoss(s string) (topology.NodeID, int, error) {
	h, q, ok := strings.Cut(s, ":")
	host, err1 := strconv.Atoi(h)
	seq, err2 := strconv.Atoi(q)
	if !ok || err1 != nil || err2 != nil || host < 0 || seq < 0 {
		return 0, 0, fmt.Errorf("-explain wants host:seq, two non-negative integers, got %q", s)
	}
	return topology.NodeID(host), seq, nil
}

// explainLoss prints the causal chain of one loss of packet seq of the
// source's stream at host, from the run's retained events: the host's
// detection; every request (with its back-off round) and expedited
// request for the packet by any host; every reply and who sent it; and
// the host's recovery, with the recovering reply's requestor and
// replier and the host's own requests and reschedules, or its
// abandonment. Each line gives its instant in ms since the detection and
// in units of the host's RTT to the source.
func explainLoss(w io.Writer, res *experiment.RunResult, host topology.NodeID, seq int) error {
	source := res.Config.Trace.Tree.Root()
	var detected *stats.Event
	for i := range res.Events {
		if e := &res.Events[i]; e.Kind == stats.EventLossDetected && e.Host == host && e.Source == source && e.Seq == seq {
			detected = e
			break
		}
	}
	if detected == nil {
		return fmt.Errorf("host %d never detected packet %d of source %d's stream as lost", host, seq, source)
	}
	rtt := res.RTT(host)
	fmt.Fprintf(w, "loss of packet %d of source %d's stream at host %d, RTT to the source %v\n", seq, source, host, rtt)
	fmt.Fprintf(w, "fingerprint: %s\n", res.Fingerprint)
	fmt.Fprintf(w, "%10s %8s  %s\n", "ms", "RTT", "event")
	for _, e := range res.Events {
		if e.Source != source || e.Seq != seq {
			continue
		}
		var what string
		switch {
		case e.Kind == stats.EventLossDetected && e.Host == host:
			what = fmt.Sprintf("detected by host %d", e.Host)
		case e.Kind == stats.EventRequestSent:
			what = fmt.Sprintf("request by host %d, round %d", e.Host, e.Round)
		case e.Kind == stats.EventExpRequestSent:
			what = fmt.Sprintf("expedited request by host %d", e.Host)
		case e.Kind == stats.EventReplySent && e.Expedited:
			what = fmt.Sprintf("expedited reply by host %d", e.Host)
		case e.Kind == stats.EventReplySent:
			what = fmt.Sprintf("reply by host %d", e.Host)
		case e.Kind == stats.EventRecovered && e.Host == host:
			how := fmt.Sprintf("requestor %d, replier %d", e.Requestor, e.Replier)
			if e.Replier == topology.None {
				how = "original data"
			}
			if e.Expedited {
				how += ", expedited"
			}
			what = fmt.Sprintf("recovered by host %d: %s, own requests %d, reschedules %d", e.Host, how, e.OwnRequests, e.Reschedules)
		case e.Kind == stats.EventRequestAbandoned && e.Host == host:
			what = fmt.Sprintf("abandoned by host %d after %d rounds", e.Host, e.Round)
		default:
			continue
		}
		since := time.Duration(e.At.Sub(detected.At))
		fmt.Fprintf(w, "%10.3f %8.3f  %s\n", float64(since)/float64(time.Millisecond), float64(since)/float64(rtt), what)
	}
	return nil
}
