package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Assignment maps each worker index to the indices of the units assigned
// to it.
type Assignment [][]int

// Makespan returns the maximum total weight across workers, the quantity
// the load-balancing problem minimizes.
func (a Assignment) Makespan(weights []int) int64 {
	var worst int64
	for _, units := range a {
		var load int64
		for _, u := range units {
			load += int64(weights[u])
		}
		if load > worst {
			worst = load
		}
	}
	return worst
}

// BalanceLPT computes a balanced n-partition with the classic
// longest-processing-time greedy rule: sort units by descending weight and
// repeatedly give the heaviest remaining unit to the least-loaded worker.
// This is the 2-approximation of Proposition 12 (4/3-approximate in fact,
// via Graham's bound); it runs in O(|W| log |W| + |W| log n).
func BalanceLPT(weights []int, n int) Assignment {
	return assignGreedy(lptOrder(weights), weights, n, nil, 0)
}

// lptOrder returns the unit indices by descending weight, ties by
// ascending index: a stable LSD radix sort on the weight's distance below
// the maximum, one pass per byte of the weight spread — linear in the unit
// count. Each entry packs the distance above the index, so a pass reads one
// array sequentially.
func lptOrder(weights []int) []int {
	order := make([]int, len(weights))
	if len(weights) < 2 {
		for i := range order {
			order[i] = i
		}
		return order
	}
	hi, lo := slices.Max(weights), slices.Min(weights)
	spread := uint64(hi) - uint64(lo)
	if spread > math.MaxUint32 || len(weights) > math.MaxUint32 {
		// Too wide to pack: sort the indices by the pairs themselves.
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
		return order
	}
	keys := make([]uint64, len(weights))
	for i, w := range weights {
		keys[i] = (uint64(hi)-uint64(w))<<32 | uint64(i)
	}
	tmp := make([]uint64, len(keys))
	for shift := uint(32); shift < 64 && spread>>(shift-32) != 0; shift += 8 {
		var count [257]int
		for _, k := range keys {
			count[k>>shift&0xff+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, k := range keys {
			d := k >> shift & 0xff
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		order[i] = int(uint32(k))
	}
	return order
}

// BalanceRandom assigns units to workers uniformly at random; the repran /
// disran baseline variants of Section 7 use it in place of LPT.
func BalanceRandom(weights []int, n int, seed int64) Assignment {
	rng := rand.New(rand.NewSource(seed))
	out := make(Assignment, n)
	for i := range weights {
		w := rng.Intn(n)
		out[w] = append(out[w], i)
	}
	return out
}

// CommCoster reports, for a unit and a worker, the bytes that must be
// shipped to that worker if the unit is assigned there (zero when the
// unit's whole data block is already local).
type CommCoster func(unit, worker int) int64

// BalanceBiCriteria computes the bi-criteria assignment of Section 6.2:
// weights are balanced LPT-style while each placement decision is charged
// its communication cost, scaled by commWeight (c_s in the paper's cost
// model). Following the generalized-assignment strategy of Shmoys–Tardos
// as adapted by the paper, the greedy rule places the heaviest unit on the
// worker minimizing load + commWeight·CC(w, i).
func BalanceBiCriteria(weights []int, n int, cc CommCoster, commWeight float64) Assignment {
	return assignGreedy(lptOrder(weights), weights, n, cc, commWeight)
}

// assignGreedy places the units in the given order, each on the worker
// minimizing its load plus the weighted comm cost. Placement runs first;
// the per-worker lists are then cut from one backing array.
func assignGreedy(order, weights []int, n int, cc CommCoster, commWeight float64) Assignment {
	owner := make([]int32, len(weights))
	counts := make([]int, n)
	loads := make([]float64, n)
	for _, u := range order {
		best, bestCost := 0, 0.0
		for w := 0; w < n; w++ {
			cost := loads[w] + float64(weights[u])
			if cc != nil {
				cost += commWeight * float64(cc(u, w))
			}
			if w == 0 || cost < bestCost {
				best, bestCost = w, cost
			}
		}
		owner[u] = int32(best)
		counts[best]++
		loads[best] += float64(weights[u])
		if cc != nil {
			loads[best] += commWeight * float64(cc(u, best))
		}
	}
	out := make(Assignment, n)
	backing := make([]int, len(order))
	off := 0
	for w, c := range counts {
		if c > 0 {
			out[w] = backing[off : off : off+c]
			off += c
		}
	}
	for _, u := range order {
		out[owner[u]] = append(out[owner[u]], u)
	}
	return out
}
