package eval

import (
	"math"
	"sort"
)

// AveragePrecision computes AP for one ranked answer list against a
// binary relevance oracle: the mean of precision@i over the ranks i
// that hold a relevant item, normalized by min(len(ranked),
// totalRelevant). Returns 0 when nothing is relevant.
//
// The paper evaluates with P@k and retrieval precision only; AP/MAP
// and NDCG are provided because any downstream user of a retrieval
// library will ask for them, and the quality experiments report them
// alongside the paper's metrics.
func AveragePrecision(ranked []int, relevant map[int]bool, totalRelevant int) float64 {
	if totalRelevant <= 0 {
		return 0
	}
	denom := totalRelevant
	if len(ranked) < denom {
		denom = len(ranked)
	}
	if denom == 0 {
		return 0
	}
	hits := 0
	var sum float64
	for i, id := range ranked {
		if relevant[id] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(denom)
}

// NDCG computes the normalized discounted cumulative gain of a ranked
// list against graded relevance (gain 0 when an id is absent). Returns
// 0 when the ideal DCG is 0.
func NDCG(ranked []int, gain map[int]float64) float64 {
	var dcg float64
	for i, id := range ranked {
		dcg += gain[id] / math.Log2(float64(i)+2)
	}
	ideal := make([]float64, 0, len(gain))
	for _, g := range gain {
		ideal = append(ideal, g)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	var idcg float64
	for i := 0; i < len(ideal) && i < len(ranked); i++ {
		idcg += ideal[i] / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// RankCorrelation computes Spearman's rho between two score vectors of
// equal length (ties share averaged ranks). It measures how faithfully
// an approximate ranking preserves the exact one across the whole
// database, a stricter lens than P@k.
func RankCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	n := float64(len(a))
	meanA, meanB := 0.0, 0.0
	for i := range ra {
		meanA += ra[i]
		meanB += rb[i]
	}
	meanA /= n
	meanB /= n
	var cov, varA, varB float64
	for i := range ra {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}

// ranks assigns 1-based ranks with ties averaged.
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	out := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && x[idx[j]] == x[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j).
		avg := (float64(i+1) + float64(j)) / 2
		for t := i; t < j; t++ {
			out[idx[t]] = avg
		}
		i = j
	}
	return out
}
