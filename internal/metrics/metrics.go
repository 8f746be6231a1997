// Package metrics accumulates the measurements the paper reports:
// per-node memory-access counts and their imbalance (relative standard
// deviation, Table 1), interconnect-link utilization (Table 1), memory
// controller utilization, and completion-time accounting.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/numa"
)

// CacheLine is the number of bytes moved per memory access.
const CacheLine = 64

// LinkBytesPerAccess is the interconnect cost of one remote access:
// the cache line plus request, probe and coherence packets (HT3 carries
// roughly 1.5× the payload for a remote read on the Opteron).
const LinkBytesPerAccess = 96

// EpochLoad aggregates the traffic of one simulation epoch: memory
// accesses between node pairs plus DMA byte streams, and derives the
// utilizations the latency model consumes.
type EpochLoad struct {
	topo *numa.Topology
	// accesses[src][dst] counts LLC-missing memory accesses issued by
	// CPUs of src against the memory of dst during the epoch.
	accesses [][]float64
	// dmaBytes[dst] counts DMA bytes written to / read from node dst.
	dmaBytes []float64
	// dmaLink[linkIdx] counts DMA bytes crossing each link.
	linkBytes []float64

	epochSeconds float64
	ctrlBW       float64 // bytes/s per memory controller
}

// NewEpochLoad returns a load accumulator for one epoch of the given
// duration. ctrlBW is the per-controller peak bandwidth in bytes/s
// (13 GiB/s on AMD48, §5.1).
func NewEpochLoad(topo *numa.Topology, epochSeconds, ctrlBW float64) *EpochLoad {
	n := topo.NumNodes()
	l := &EpochLoad{
		topo:         topo,
		accesses:     make([][]float64, n),
		dmaBytes:     make([]float64, n),
		linkBytes:    make([]float64, len(topo.Links)),
		epochSeconds: epochSeconds,
		ctrlBW:       ctrlBW,
	}
	for i := range l.accesses {
		l.accesses[i] = make([]float64, n)
	}
	return l
}

// Reset clears the accumulator for the next epoch.
//
//xnuma:noalloc
func (l *EpochLoad) Reset() {
	for i := range l.accesses {
		for j := range l.accesses[i] {
			l.accesses[i][j] = 0
		}
	}
	for i := range l.dmaBytes {
		l.dmaBytes[i] = 0
	}
	for i := range l.linkBytes {
		l.linkBytes[i] = 0
	}
}

// AddAccesses records n memory accesses from CPUs on src to memory on
// dst, charging the traversed links.
//
//xnuma:noalloc
func (l *EpochLoad) AddAccesses(src, dst numa.NodeID, n float64) {
	l.accesses[src][dst] += n
	if src != dst {
		bytes := n * LinkBytesPerAccess
		for _, li := range l.topo.RouteLinks(src, dst) {
			l.linkBytes[li] += bytes
		}
	}
}

// AddDMA records a DMA stream of the given bytes from the I/O bus on
// ioNode into memory on dst.
//
//xnuma:noalloc
func (l *EpochLoad) AddDMA(ioNode, dst numa.NodeID, bytes float64) {
	l.dmaBytes[dst] += bytes
	if ioNode != dst {
		for _, li := range l.topo.RouteLinks(ioNode, dst) {
			l.linkBytes[li] += bytes
		}
	}
}

// CtrlUtil returns the utilization of node's memory controller in [0,1].
//
//xnuma:noalloc
func (l *EpochLoad) CtrlUtil(node numa.NodeID) float64 {
	var bytes float64
	for src := range l.accesses {
		bytes += l.accesses[src][node] * CacheLine
	}
	bytes += l.dmaBytes[node]
	u := bytes / (l.ctrlBW * l.epochSeconds)
	if u > 1 {
		u = 1
	}
	return u
}

// FillCtrlUtil writes every node's controller utilization into dst
// (len = node count), letting per-epoch callers reuse one buffer.
//
//xnuma:noalloc
func (l *EpochLoad) FillCtrlUtil(dst []float64) {
	for n := range dst {
		dst[n] = l.CtrlUtil(numa.NodeID(n))
	}
}

// LinkUtil returns the utilization of link index li in [0,1].
//
//xnuma:noalloc
func (l *EpochLoad) LinkUtil(li int) float64 {
	u := l.linkBytes[li] / (l.topo.Links[li].BandwidthBps * l.epochSeconds)
	if u > 1 {
		u = 1
	}
	return u
}

// FillLinkUtil writes every link's utilization into dst (len = link
// count), letting per-epoch callers snapshot all links with one
// division each instead of re-deriving them per node pair.
//
//xnuma:noalloc
func (l *EpochLoad) FillLinkUtil(dst []float64) {
	for i := range dst {
		dst[i] = l.LinkUtil(i)
	}
}

// MaxLinkUtil returns the utilization of the most loaded link.
//
//xnuma:noalloc
func (l *EpochLoad) MaxLinkUtil() float64 {
	var max float64
	for i := range l.linkBytes {
		if u := l.LinkUtil(i); u > max {
			max = u
		}
	}
	return max
}

// NodeAccesses returns the access count against node's memory this epoch.
//
//xnuma:noalloc
func (l *EpochLoad) NodeAccesses(node numa.NodeID) float64 {
	var n float64
	for src := range l.accesses {
		n += l.accesses[src][node]
	}
	return n
}

// RunStats accumulates whole-run measurements.
type RunStats struct {
	topo *numa.Topology
	// nodeAccesses accumulates accesses per destination node.
	nodeAccesses []float64
	// maxLinkUtilSum accumulates the per-epoch most-loaded-link
	// utilization, for the Table 1 interconnect-load metric.
	maxLinkUtilSum float64
	epochs         int

	RemoteAccesses float64
	TotalAccesses  float64
	PagesMigrated  uint64
	Hypercalls     uint64
	HypercallNanos float64
	IPIOverhead    float64 // seconds lost to virtualized IPIs
	IOSeconds      float64 // seconds spent waiting on I/O
}

// NewRunStats returns an empty accumulator.
func NewRunStats(topo *numa.Topology) *RunStats {
	return &RunStats{topo: topo, nodeAccesses: make([]float64, topo.NumNodes())}
}

// Observe folds one epoch's load into the run statistics.
//
//xnuma:noalloc
func (s *RunStats) Observe(l *EpochLoad) {
	for dst := 0; dst < s.topo.NumNodes(); dst++ {
		n := l.NodeAccesses(numa.NodeID(dst))
		s.nodeAccesses[dst] += n
		s.TotalAccesses += n
	}
	for src := range l.accesses {
		for dst, n := range l.accesses[src] {
			if src != dst {
				s.RemoteAccesses += n
			}
		}
	}
	s.maxLinkUtilSum += l.MaxLinkUtil()
	s.epochs++
}

// Imbalance returns the Table 1 imbalance metric: the relative standard
// deviation (in percent) around the average number of accesses per node.
func (s *RunStats) Imbalance() float64 {
	return RelStdDev(s.nodeAccesses)
}

// InterconnectLoad returns the Table 1 interconnect metric: the average
// over epochs of the utilization of the most loaded link, in percent.
func (s *RunStats) InterconnectLoad() float64 {
	if s.epochs == 0 {
		return 0
	}
	return 100 * s.maxLinkUtilSum / float64(s.epochs)
}

// LocalityRatio returns the fraction of accesses that were local.
func (s *RunStats) LocalityRatio() float64 {
	if s.TotalAccesses == 0 {
		return 1
	}
	return 1 - s.RemoteAccesses/s.TotalAccesses
}

// RelStdDev returns the relative standard deviation of xs in percent
// (100 * stddev / mean). It returns 0 for an empty or all-zero input.
func RelStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(xs))
	var varsum float64
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	return 100 * math.Sqrt(varsum/float64(len(xs))) / mean
}

// ImbalanceClass is the paper's three-way classification (§3.5.2).
type ImbalanceClass int

const (
	ClassLow      ImbalanceClass = iota // first-touch imbalance <  85 %
	ClassModerate                       // 85 % – 130 %
	ClassHigh                           // > 130 %
)

func (c ImbalanceClass) String() string {
	switch c {
	case ClassLow:
		return "low"
	case ClassModerate:
		return "moderate"
	case ClassHigh:
		return "high"
	default:
		return fmt.Sprintf("ImbalanceClass(%d)", int(c))
	}
}

// Classify applies the paper's thresholds to a first-touch imbalance
// percentage.
func Classify(firstTouchImbalance float64) ImbalanceClass {
	switch {
	case firstTouchImbalance < 85:
		return ClassLow
	case firstTouchImbalance <= 130:
		return ClassModerate
	default:
		return ClassHigh
	}
}
