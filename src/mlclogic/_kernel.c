/* The RK4 stepping loops of mlclogic.integrator, compiled.

   Both loops repeat integrator._rk4_stepper and dynamics.drift_network
   operation by operation and in the same order, and take the drive
   sines from libm, so they return the numpy loops' results bit for
   bit. That needs IEEE double arithmetic with nothing fused or
   reordered: build with

       cc -O3 -ffp-contract=off -fPIC -shared -o kernel.so _kernel.c -lm

   and never with -ffast-math or -march=native. The batch step `rows`
   is vectorized across trial rows; each lane does the scalar code's
   operations in its order, so SIMD changes no bit. On x86-64 it is
   built for avx2 and for the baseline, and the loader picks avx2
   when the CPU has it. The weights w are the CnnWeights fields in
   order: a1, s11, s12, s21, s22, i1. */

#include <math.h>
#include <stdint.h>

/* On x86-64 `rows` is cloned for WIDE and for the baseline,
   "default"; isa() reads the same name. */
#if defined(__x86_64__) && defined(__GLIBC__)
#define WIDE "avx2"
#define CLONES __attribute__((target_clones(WIDE, "default")))
#else
#define CLONES
#endif

/* decode rule kinds, in the order of mlclogic.decode.RULE_KINDS */
enum { SIGN_POS, SIGN_NEG, BAND, BAND_COMPLEMENT };

static double saturation(double x)
{
    return 0.5 * (fabs(x + 1.0) - fabs(x - 1.0));
}

static void drift(const double *w, double x1, double x2, double force,
                  double *d1, double *d2)
{
    *d1 = -x1 + w[0] * saturation(x1) + w[1] * x1 + w[2] * x2 + w[5];
    *d2 = -x2 + w[3] * x1 + w[4] * x2 + force;
}

/* One RK4 step; s1, s2, s4 are the drive sines at the step's start,
   midpoint and end. Inline, or gcc leaves it a call inside the row
   loop of a build without clones, and that loop stays scalar. */
static inline void rk4(const double *w, double h, double base, double famp,
                       double s1, double s2, double s4, double *x1,
                       double *x2)
{
    double a1, b1, a2, b2, a3, b3, a4, b4;
    drift(w, *x1, *x2, base + famp * s1, &a1, &b1);
    drift(w, *x1 + 0.5 * h * a1, *x2 + 0.5 * h * b1, base + famp * s2,
          &a2, &b2);
    drift(w, *x1 + 0.5 * h * a2, *x2 + 0.5 * h * b2, base + famp * s2,
          &a3, &b3);
    drift(w, *x1 + h * a3, *x2 + h * b3, base + famp * s4, &a4, &b4);
    *x1 = *x1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4);
    *x2 = *x2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4);
}

static void sines(double z0, double omega, double h, int64_t i, double *s)
{
    double z = z0 + omega * ((double)i * h);
    s[0] = sin(z);
    s[1] = sin(z + 0.5 * omega * h);
    s[2] = sin(z + omega * h);
}

static int holds(int kind, double v, double lo, double hi)
{
    switch (kind) {
    case SIGN_POS: return v > 0.0;
    case SIGN_NEG: return v < 0.0;
    case BAND: return v >= lo && v <= hi;
    default: return !(v >= lo && v <= hi);
    }
}

/* The instruction set `rows` runs on: WIDE if the CPU supports it. */
const char *isa(void)
{
#ifdef WIDE
    if (__builtin_cpu_supports(WIDE))
        return WIDE;
#endif
    return "default";
}

/* One RK4 step from step index i, whose drive sines are s, for trial
   rows 0 .. n-1. */
CLONES
static void rows(int64_t n, const double *w, double h, const double *bias,
                 const double *famp, const double *level, const double *s,
                 double *restrict x1, double *restrict x2)
{
    for (int64_t t = 0; t < n; t++)
        rk4(w, h, bias[t] + level[t], famp[t], s[0], s[1], s[2], &x1[t],
            &x2[t]);
}

/* Steps lo .. hi-1 of n trial rows at drive levels `level`, step-outer
   and row-inner. When noise is not NULL, row t adds scale[t] times
   noise[stream[t]*ld + i - lo] to x2 after step i, or 0.0 when
   stream[t] < 0. After every step j = i + 1 with j % check == 0 or
   j == n_steps, a row outside the bound is zeroed and its alive flag
   cleared. After each step i in count_from .. count_to-1, res[q][t][bit]
   of shape (nq, n, nbits) counts the samples where indicator q, rule
   kind[q] on x1 (var[q] == 0) or x2, holds. */
void seg(int64_t n, int64_t lo, int64_t hi, int64_t n_steps, int64_t check,
         double z0, double omega, double h, const double *w,
         const double *bias, const double *famp, const double *level,
         double *x1, double *x2, uint8_t *alive, double bound,
         const double *noise, int64_t ld, const int64_t *stream,
         const double *scale, int64_t count_from, int64_t count_to,
         int64_t nq, const int64_t *var, const int64_t *kind,
         const double *qlo, const double *qhi, double *res, int64_t nbits,
         int64_t bit)
{
    double s[3];
    for (int64_t i = lo; i < hi; i++) {
        sines(z0, omega, h, i, s);
        rows(n, w, h, bias, famp, level, s, x1, x2);
        if (noise)
            for (int64_t t = 0; t < n; t++) {
                double g = stream[t] < 0 ? 0.0 : noise[stream[t] * ld + i - lo];
                x2[t] = x2[t] + scale[t] * g;
            }
        int64_t j = i + 1;
        if (j % check == 0 || j == n_steps)
            for (int64_t t = 0; t < n; t++)
                if (!(fabs(x1[t]) <= bound && fabs(x2[t]) <= bound)) {
                    alive[t] = 0;
                    x1[t] = 0.0;
                    x2[t] = 0.0;
                }
        if (i >= count_from && i < count_to)
            for (int64_t q = 0; q < nq; q++) {
                const double *v = var[q] ? x2 : x1;
                double *r = res + q * n * nbits + bit;
                for (int64_t t = 0; t < n; t++)
                    if (holds((int)kind[q], v[t], qlo[q], qhi[q]))
                        r[t * nbits] += 1.0;
            }
    }
}

/* Steps lo .. hi-1 of one trial from state x[0..1], with base the bias
   plus the logic level. When noise is not NULL, step i adds
   scale * noise[i - lo] to x2. The state after step j = i + 1 goes to
   o1/o2[j / stride] when j % stride == 0 and to o1/o2[last] when
   j == n_steps. Returns the first j whose state leaves the bound, x then
   holding that state, or -1. */
int64_t scal(int64_t lo, int64_t hi, int64_t n_steps, int64_t stride,
             int64_t last, double z0, double omega, double h, const double *w,
             double base, double famp, double *x, const double *noise,
             double scale, double bound, double *o1, double *o2)
{
    double s[3], a = x[0], b = x[1];
    int64_t j = -1;
    for (int64_t i = lo; i < hi; i++) {
        sines(z0, omega, h, i, s);
        rk4(w, h, base, famp, s[0], s[1], s[2], &a, &b);
        if (noise)
            b = b + scale * noise[i - lo];
        j = i + 1;
        if (!(fabs(a) <= bound && fabs(b) <= bound))
            break;
        if (j == n_steps) {
            o1[last] = a;
            o2[last] = b;
        } else if (j % stride == 0) {
            o1[j / stride] = a;
            o2[j / stride] = b;
        }
        j = -1;
    }
    x[0] = a;
    x[1] = b;
    return j;
}
