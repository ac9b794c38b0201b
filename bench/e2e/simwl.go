package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"groundhog/internal/cluster"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// simBuilder constructs one simulator instance (deploying every function,
// one warm container each) and returns its Run step. The harness times the
// two apart: construction is set-up, Run is the measured segment.
type simBuilder func(seed uint64, window sim.Duration, profScale float64) (func() (simOutcome, error), error)

var simBuilders = map[string]simBuilder{wlSimHead: buildSimHead, wlClusterChurn: buildClusterChurn}

// simOutcome is what one simulator segment hands back for checking: the
// request count the segment is costed over, the digest of every
// deterministic result field, and a teardown that reports leaked frames.
type simOutcome struct {
	requests   int
	coldStarts int
	transfers  int
	lost       int
	digest     string
	teardown   func() int
}

// buildSimHead builds one sim-head fleet: the head mix on one
// clone-scale-out GH fleet with sketch-backed stats.
func buildSimHead(seed uint64, window sim.Duration, profScale float64) (func() (simOutcome, error), error) {
	ld, err := loads(simHeadMix, profScale)
	if err != nil {
		return nil, err
	}
	fl, err := trace.NewFleet(trace.Config{
		Cost:                     kernel.Default(),
		Mode:                     isolation.ModeGH,
		Seed:                     seed,
		MaxContainersPerFunction: simHeadContainers,
		KeepAlive:                trace.DefaultKeepAlive,
		ScaleToZeroAfter:         trace.DefaultScaleToZeroAfter,
		Window:                   window,
		CloneScaleOut:            true,
		SketchStats:              true,
	}, ld)
	if err != nil {
		return nil, err
	}
	return func() (simOutcome, error) { return runFleet(fl) }, nil
}

func runFleet(fl *trace.Fleet) (simOutcome, error) {
	res, err := fl.Run()
	if err != nil {
		return simOutcome{}, err
	}
	out := simOutcome{teardown: fl.Teardown}
	h := sha256.New()
	for _, fs := range res.PerFunction {
		out.requests += fs.Requests
		out.coldStarts += fs.ColdStarts
		out.lost += fs.Arrived - fs.Requests
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %.9g %.9g %.9g|", fs.Name, fs.Arrived, fs.Requests,
			fs.FullColdStarts, fs.CloneColdStarts, fs.ColdStartCost, fs.Restores, fs.Reaped, fs.ScaledToZero,
			fs.E2E.Median(), fs.E2E.P99(), fs.Queue.Percentile(95))
	}
	fmt.Fprintf(h, "%d %d %.9g", res.PeakFrames, res.EndFrames, res.MeanFrames)
	out.digest = hexDigest(h)
	return out, nil
}

// clusterEvents is the churn schedule: host 2 fails at 2/5 of the window
// and host 0 drains at 7/10.
func clusterEvents(window sim.Duration) []cluster.Event {
	return []cluster.Event{
		{At: window * 2 / 5, Kind: cluster.EventHostFail, Host: 2},
		{At: window * 7 / 10, Kind: cluster.EventHostDrain, Host: 0},
	}
}

// buildClusterChurn builds one cluster-churn cluster: the tail mix on four
// hosts under the default placer, faults disarmed.
func buildClusterChurn(seed uint64, window sim.Duration, profScale float64) (func() (simOutcome, error), error) {
	ld, err := loads(clusterChurnMix, profScale)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Cost:                     kernel.Default(),
		Mode:                     isolation.ModeGH,
		Seed:                     seed,
		Hosts:                    clusterChurnHosts,
		MaxContainersPerFunction: clusterChurnPoolCap,
		KeepAlive:                trace.DefaultKeepAlive,
		ScaleToZeroAfter:         trace.DefaultScaleToZeroAfter,
		Window:                   window,
		Events:                   clusterEvents(window),
	}, ld)
	if err != nil {
		return nil, err
	}
	return func() (simOutcome, error) { return runCluster(cl) }, nil
}

func runCluster(cl *cluster.Cluster) (simOutcome, error) {
	res, err := cl.Run()
	if err != nil {
		return simOutcome{}, err
	}
	out := simOutcome{teardown: cl.Teardown, lost: res.LostRequests(), transfers: res.Registry.Transfers}
	h := sha256.New()
	for _, fs := range res.PerFunction {
		out.requests += fs.Requests
		out.coldStarts += fs.ColdStarts
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %d %d %d %.9g %.9g|", fs.Name, fs.Arrived, fs.Requests,
			fs.FullColdStarts, fs.TransferColdStarts, fs.LocalCloneColdStarts, fs.ColdStartCost, fs.TransferCost,
			fs.Restores, fs.Reaped, fs.ScaledToZero, fs.EventCrashes+fs.Drained,
			fs.E2E.Median(), fs.E2E.P99())
	}
	for _, hs := range res.PerHost {
		fmt.Fprintf(h, "h%d %d %d %d|", hs.ID, hs.Placements, hs.PeakFrames, hs.EndFrames)
	}
	fmt.Fprintf(h, "%d %d %.9g", res.PeakFrames, res.EndFrames, res.MeanFrames)
	out.digest = hexDigest(h)
	return out, nil
}

func hexDigest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
