/* The paper's program (Boldo et al., arXiv:1212.6641): the explicit
 * three-point scheme for the 1-D wave equation with zero second datum and
 * zero source, marched over the whole space-time grid.
 *
 * The first datum is passed in sampled, u0[0..ni], so that the loop and the
 * Python march start from the same bits.  p holds the field column by
 * column: P(i, k) is p[k * (ni + 1) + i].  Build with contraction off, for
 * example  cc -O2 -ffp-contract=off -shared -fPIC -o wave.so wave.c -lm.
 */
#include <math.h>
#include <stddef.h>

#define P(i, k) p[(size_t)(k) * (size_t)(ni + 1) + (size_t)(i)]

void wave(int ni, int nk, double dx, double dt, double v,
          const double *u0, double *p)
{
  int i, k;
  double a1, a, dp;

  a1 = dt/dx*v;
  a = a1*a1;

  for (i = 0; i <= ni; i++) {
    P(i, 0) = u0[i];
  }

  P(0, 1) = 0.;
  for (i = 1; i < ni; i++) {
    dp = P(i+1, 0) - 2.*P(i, 0) + P(i-1, 0);
    P(i, 1) = P(i, 0) + 0.5*a*dp;
  }
  P(ni, 1) = 0.;

  for (k = 1; k < nk; k++) {
    P(0, k+1) = 0.;
    for (i = 1; i < ni; i++) {
      dp = P(i+1, k) - 2.*P(i, k) + P(i-1, k);
      P(i, k+1) = 2.*P(i, k) - P(i, k-1) + a*dp;
    }
    P(ni, k+1) = 0.;
  }
}
