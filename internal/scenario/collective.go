package scenario

import (
	"bytes"
	"fmt"
	"sort"

	"pushpull/coll"
	"pushpull/comm"
	"pushpull/internal/cluster"
)

// The collective pattern family drives the public coll package — whole-
// world operations instead of per-channel streams — so the scenario
// engine can characterize the communication schedules real parallel
// programs are made of. Traffic.Algorithm selects the collective
// algorithm where one applies (the sweepable axis); every pattern
// verifies its results byte-exactly, so a run that completes is also a
// correctness witness for the schedule under the configured protocol,
// topology and loss rate.

// collAlgOp maps the patterns that take a Traffic.Algorithm to the coll
// operation whose algorithm table validates it.
var collAlgOp = map[string]coll.OpKind{
	"allreduce": coll.OpAllReduce,
	"bcast":     coll.OpBcast,
}

// algPatternNames lists the patterns with an algorithm axis, sorted.
func algPatternNames() []string {
	names := make([]string, 0, len(collAlgOp))
	for name := range collAlgOp {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// collFill derives rank r's deterministic contribution.
func collFill(r, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r*131 + i*7 + 1)
	}
	return b
}

// firstRankErr reduces per-rank error slots to one error, lowest rank
// first. The collective patterns record validation failures per rank,
// and the lowest-rank pick keeps the reported error independent of
// which rank happened to fail first in virtual time.
func firstRankErr(rankErr []error) error {
	for _, err := range rankErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// runAllReduce: every rank allreduces a Size-byte vector Messages
// times under the selected algorithm (XOR combine: commutative, so
// every algorithm must produce identical bytes). Samples are
// per-operation times measured on rank 0; each rank checks its result
// against the locally recomputed XOR of all contributions.
func runAllReduce(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	w := coll.NewWorld(c)
	size := w.Size()
	n := s.Traffic.Size
	iters := s.Traffic.Messages
	alg := coll.Algorithm(s.Traffic.Algorithm)

	want := make([]byte, n)
	for rank := 0; rank < size; rank++ {
		want = coll.XorBytes(want, collFill(rank, n))
	}
	samples := make([]float64, 0, iters)
	rankErr := make([]error, size)
	w.Launch(func(r *coll.Rank) {
		data := collFill(r.ID(), n)
		r.Barrier()
		for i := 0; i < iters; i++ {
			start := r.Thread().Now()
			res := r.AllReduce(data, coll.XorBytes, coll.WithAlgorithm(alg))
			if !bytes.Equal(res, want) && rankErr[r.ID()] == nil {
				rankErr[r.ID()] = fmt.Errorf("scenario: allreduce rank %d iteration %d produced wrong bytes", r.ID(), i)
			}
			if r.ID() == 0 {
				samples = append(samples, r.Thread().Now().Sub(start).Microseconds())
			}
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if err := firstRankErr(rankErr); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: allreduce finished %d of %d operations (deadlock?)", len(samples), iters)
	}
	return samples, uint64(iters) * uint64(n) * uint64(size), nil
}

// collOpts lowers the spec's algorithm/segment knobs onto coll options.
func collOpts(s Spec) []coll.Opt {
	var opts []coll.Opt
	if alg := s.Traffic.Algorithm; alg != "" {
		opts = append(opts, coll.WithAlgorithm(coll.Algorithm(alg)))
	}
	if seg := s.Traffic.SegmentBytes; seg > 0 {
		opts = append(opts, coll.WithSegment(seg))
	}
	return opts
}

// runBcast: rank Root broadcasts a Size-byte vector Messages times
// under the selected algorithm; every rank verifies the received bytes
// against the root's deterministic fill. Samples are per-operation
// times on the terminal ring rank (root-1, the last hop of the chain
// algorithms and a leaf of the binomial tree), where completion of the
// whole operation is visible — the root itself finishes as soon as its
// sends retire locally.
func runBcast(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	w := coll.NewWorld(c)
	size := w.Size()
	n := s.Traffic.Size
	iters := s.Traffic.Messages
	root := s.Traffic.Root
	if root < 0 || root >= size {
		return nil, 0, fmt.Errorf("scenario: bcast root %d out of range for %d ranks", root, size)
	}
	opts := collOpts(s)
	last := (root - 1 + size) % size

	payload := collFill(root, n)
	samples := make([]float64, 0, iters)
	rankErr := make([]error, size)
	w.Launch(func(r *coll.Rank) {
		r.Barrier()
		for i := 0; i < iters; i++ {
			start := r.Thread().Now()
			var data []byte
			if r.ID() == root {
				data = payload
			}
			got := r.Bcast(root, data, n, opts...)
			if !bytes.Equal(got, payload) && rankErr[r.ID()] == nil {
				rankErr[r.ID()] = fmt.Errorf("scenario: bcast rank %d iteration %d received wrong bytes", r.ID(), i)
			}
			if r.ID() == last {
				samples = append(samples, r.Thread().Now().Sub(start).Microseconds())
			}
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if err := firstRankErr(rankErr); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: bcast finished %d of %d operations (deadlock?)", len(samples), iters)
	}
	return samples, uint64(iters) * uint64(n) * uint64(size-1), nil
}

// runAllToAll: Messages rounds of a full block shuffle — every rank
// sends a distinct Size-byte block to every other rank (the transpose /
// FFT exchange). Samples are per-round times on rank 0; every received
// block is verified against the sender-derived fill.
func runAllToAll(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	w := coll.NewWorld(c)
	size := w.Size()
	n := s.Traffic.Size
	iters := s.Traffic.Messages

	samples := make([]float64, 0, iters)
	rankErr := make([]error, size)
	w.Launch(func(r *coll.Rank) {
		blocks := make([][]byte, size)
		for to := 0; to < size; to++ {
			blocks[to] = collFill(r.ID()*size+to, n)
		}
		r.Barrier()
		for i := 0; i < iters; i++ {
			start := r.Thread().Now()
			got := r.AllToAll(blocks, n)
			for from := 0; from < size; from++ {
				if !bytes.Equal(got[from], collFill(from*size+r.ID(), n)) && rankErr[r.ID()] == nil {
					rankErr[r.ID()] = fmt.Errorf("scenario: alltoall rank %d iteration %d got a wrong block from %d", r.ID(), i, from)
				}
			}
			if r.ID() == 0 {
				samples = append(samples, r.Thread().Now().Sub(start).Microseconds())
			}
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if err := firstRankErr(rankErr); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: alltoall finished %d of %d rounds (deadlock?)", len(samples), iters)
	}
	return samples, uint64(iters) * uint64(n) * uint64(size) * uint64(size-1), nil
}

// runHalo: the 1-D stencil halo exchange with load imbalance — each
// iteration rank r computes ComputeX + r·ComputeY cycles, then swaps
// Size-byte halos with both chain neighbours (directions tagged so the
// receives can never cross-match). The skew makes neighbours
// systematically early/late, the paper's §5.3 race at scale. Samples
// are per-iteration times on the last (most loaded) rank.
func runHalo(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	w := coll.NewWorld(c)
	size := w.Size()
	n := s.Traffic.Size
	iters := s.Traffic.Messages
	base, skew := s.Traffic.ComputeX, s.Traffic.ComputeY
	const (
		tagUp   = 1
		tagDown = 2
	)

	samples := make([]float64, 0, iters)
	rankErr := make([]error, size)
	w.Launch(func(r *coll.Rank) {
		rank := r.ID()
		left, right := rank-1, rank+1
		up := collFill(rank, n)   // halo this rank offers its successor
		down := collFill(rank, n) // and its predecessor
		for i := 0; i < iters; i++ {
			start := r.Thread().Now()
			r.Compute(base + int64(rank)*skew)
			var sends []*comm.Op
			if left >= 0 {
				sends = append(sends, r.Isend(left, down, comm.WithTag(tagDown)))
			}
			if right < size {
				sends = append(sends, r.Isend(right, up, comm.WithTag(tagUp)))
			}
			if left >= 0 {
				got := r.Recv(left, n, comm.WithTag(tagUp))
				if !bytes.Equal(got, collFill(left, n)) && rankErr[rank] == nil {
					rankErr[rank] = fmt.Errorf("scenario: halo rank %d iteration %d got a wrong halo from %d", rank, i, left)
				}
			}
			if right < size {
				got := r.Recv(right, n, comm.WithTag(tagDown))
				if !bytes.Equal(got, collFill(right, n)) && rankErr[rank] == nil {
					rankErr[rank] = fmt.Errorf("scenario: halo rank %d iteration %d got a wrong halo from %d", rank, i, right)
				}
			}
			if err := comm.WaitAll(r.Thread(), sends...); err != nil && rankErr[rank] == nil {
				rankErr[rank] = fmt.Errorf("scenario: halo rank %d iteration %d send: %w", rank, i, err)
			}
			if rank == size-1 {
				samples = append(samples, r.Thread().Now().Sub(start).Microseconds())
			}
		}
	})
	if err := runSim(c, s); err != nil {
		return nil, 0, err
	}
	if err := firstRankErr(rankErr); err != nil {
		return nil, 0, err
	}
	if len(samples) != iters {
		return nil, 0, fmt.Errorf("scenario: halo finished %d of %d iterations (deadlock?)", len(samples), iters)
	}
	return samples, uint64(iters) * uint64(2*(size-1)) * uint64(n), nil
}
