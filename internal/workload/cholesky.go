package workload

import (
	"math/rand"

	"synts/internal/fixedpoint"
)

// Cholesky: right-looking blocked Cholesky factorization of a symmetric
// positive-definite matrix, with column blocks cyclically assigned to
// threads and a barrier after each elimination step (the supernodal
// dependence structure of the SPLASH-2 original).
//
// Heterogeneity source: the trailing-update work per thread shrinks as the
// factorization proceeds and depends on which block column a thread owns at
// each step; moreover the matrix is graded — leading columns carry large
// entries (heavy supernodes) — so the owner of the current panel works on
// wide operands while the others update smaller trailing values.

func init() {
	register(Kernel{
		Name:          "cholesky",
		Description:   "blocked Cholesky factorization, graded SPD matrix (heterogeneous)",
		Heterogeneous: true,
		Make:          makeCholesky,
	})
}

const cholMatBase uint32 = 0x6000_0000

func makeCholesky(threads, size int, seed int64) func(tc *TC) {
	nb := 2 * threads // number of block columns (2 elimination rounds per thread)
	bs := 4 + size    // block size
	n := nb * bs
	rng := rand.New(rand.NewSource(seed))
	// Build a graded SPD matrix: A = L0*L0^T with L0 lower-triangular whose
	// magnitudes decay along the diagonal. Leading columns get entries up
	// to ~8.0; trailing ones ~0.1.
	l0 := make([][]float64, n)
	for i := range l0 {
		l0[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			scale := 8.0 / float64(1+j/bs)
			l0[i][j] = (rng.Float64()*2 - 1) * scale
		}
		l0[i][i] = 8.0/float64(1+i/bs) + 1.0 // dominant diagonal
	}
	a := make([][]fixedpoint.Q, n)
	for i := range a {
		a[i] = make([]fixedpoint.Q, n)
		for j := range a[i] {
			var s float64
			for k := 0; k <= min(i, j); k++ {
				s += l0[i][k] * l0[j][k]
			}
			a[i][j] = fixedpoint.FromFloat(s / float64(n)) // keep in Q16.16 range
		}
	}

	addr := func(i, j int) uint32 { return cholMatBase + uint32(i*n+j)*4 }

	return func(tc *TC) {
		t := tc.ID()
		p := tc.NumThreads()
		for k := 0; k < nb; k++ {
			k0 := k * bs
			owner := k % p
			if owner == t {
				// Panel factorization: Cholesky of the diagonal block plus
				// scaling of the sub-diagonal panel.
				for j := k0; j < k0+bs; j++ {
					// d = sqrt(a[j][j] - sum of squares of row j left of j)
					acc := a[j][j]
					tc.Load(addr(j, j))
					j := j
					tc.Loop(j-k0, func(cc int) {
						c := k0 + cc
						tc.Load(addr(j, c))
						acc = tc.QMac(acc, -a[j][c], a[j][c])
					})
					acc = fixedpoint.Max(acc, fixedpoint.FromFloat(0.0001))
					d := tc.QSqrt(acc)
					a[j][j] = d
					tc.Store(addr(j, j))
					for i := j + 1; i < n; i++ {
						acc := a[i][j]
						tc.Load(addr(i, j))
						i := i
						tc.Loop(j-k0, func(cc int) {
							c := k0 + cc
							acc = tc.QMac(acc, -a[i][c], a[j][c])
						})
						a[i][j] = tc.QDiv(acc, d)
						tc.Store(addr(i, j))
					}
				}
			}
			tc.Barrier()

			// Trailing update: block columns k+1..nb-1 are updated by their
			// owners using the freshly factored panel.
			for jb := k + 1; jb < nb; jb++ {
				if jb%p != t {
					continue
				}
				j0 := jb * bs
				for j := j0; j < j0+bs; j++ {
					for i := j; i < n; i++ {
						acc := a[i][j]
						tc.Load(addr(i, j))
						i, j := i, j
						tc.Loop(bs, func(cc int) {
							c := k0 + cc
							tc.Load(addr(i, c))
							acc = tc.QMac(acc, -a[i][c], a[j][c])
						})
						a[i][j] = acc
						tc.Store(addr(i, j))
					}
				}
			}
			tc.Barrier()
		}
	}
}
