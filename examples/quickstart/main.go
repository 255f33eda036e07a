// Quickstart: generate a small synthetic multicast trace, replay it
// under SRM and CESRM, and print the headline comparison — the shortest
// path from zero to the paper's core result, using only the library's
// public API (the root cesrm package).
package main

import (
	"fmt"
	"log"
	"time"

	"cesrm"
)

func main() {
	// 1. A 10-receiver multicast tree with bursty loss on a few links,
	//    mimicking the MBone traces of Yajnik et al.
	tr, err := cesrm.GenerateTrace(cesrm.TraceSpec{
		Name:         "quickstart",
		Topology:     cesrm.TreeSpec{Receivers: 10, Depth: 4},
		NumPackets:   5000,
		Period:       80 * time.Millisecond,
		TargetLosses: 1500,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	loc := cesrm.AnalyzeLocality(tr)
	fmt.Printf("trace: %v\n", tr.ComputeStats())
	fmt.Printf("loss locality: P(loss|loss) is %.0fx the unconditional loss rate; mean burst %.1f packets\n\n",
		loc.LocalityRatio(), loc.MeanBurstLen)

	// 2. Replay the trace under both protocols with the paper's
	//    parameters (C1=C2=2, D1=D2=1, 20 ms links, 1.5 Mbps).
	pair, err := cesrm.RunPair(tr, cesrm.RunConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The paper's headline numbers.
	srmLat := pair.SRM.Collector.OverallNormalized(pair.SRM.RTT)
	cesrmLat := pair.CESRM.Collector.OverallNormalized(pair.CESRM.RTT)
	fmt.Printf("SRM   mean recovery latency: %.2f RTT over %d recoveries\n", srmLat.MeanRTT, srmLat.Count)
	fmt.Printf("CESRM mean recovery latency: %.2f RTT over %d recoveries\n", cesrmLat.MeanRTT, cesrmLat.Count)
	fmt.Printf("latency reduction: %.0f%% (paper reports roughly 50%%)\n\n", pair.LatencyReductionPct())

	if succ, ok := pair.ExpeditedSuccess(); ok {
		fmt.Printf("expedited recoveries successful: %.0f%% (paper: >70%%)\n", succ)
	}
	o := pair.Overhead()
	fmt.Printf("CESRM retransmission overhead: %.0f%% of SRM's (paper: 30-80%%)\n", o.RetransPct)
	fmt.Printf("CESRM control overhead: %.0f%% of SRM's, of which %.0f%% is cheap unicast\n",
		o.ControlTotalPct(), 100*o.ControlUnicastPct/o.ControlTotalPct())
}
