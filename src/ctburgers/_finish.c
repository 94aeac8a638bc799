/* The compiled kernels of ctburgers' collocation scheme, in C.
 *
 * march runs whole Crank-Nicolson steps on the state buffer of a
 * ctburgers.scheme._StepKernel.  Each step computes the lower, upper,
 * diag and rhs entries of one row of the step system from the current
 * parameters, folds a phantom parameter into it if it is an end row and
 * eliminates it at once, then back-substitutes and restores the phantoms.
 * The Python step of _StepKernel.assemble, ctburgers.linalg.thomas_sweep
 * and _StepKernel.march fills all the bands before it sweeps: the order of
 * the statements differs, but every value has the same expression, so the
 * bits are the same.
 *
 * A step that starts from at least REUSE_MIN parameters equal to their
 * upper neighbour bit for bit, as the flat far field of a steep front is,
 * takes a row's multiplier, forward update and new parameter from the row
 * before it wherever every operand of that work repeats the row before's
 * bits; the same operation on the same bits gives the same bits, so the
 * step skips those divisions and keeps every bit of the Python step.
 * Operands are compared as bit patterns, never with ==, which takes -0.0
 * for 0.0 and would hand on a quotient or a difference of the wrong sign.
 *
 * fit solves the bandwidth-2 system of the initial spline fit with the
 * statements of ctburgers.linalg.banded_solve in the same order.
 *
 * front evaluates ctburgers.exact.traveling_wave_exact on an array of
 * points with the expressions of its numpy column, and with libm's exp,
 * the function Python's math.exp calls.
 *
 * sine sums the series of ctburgers.exact.sine_wave_exact on an array of
 * points from the factors and the sin/cos table Python computes, each
 * point's terms added in ascending j as the numpy column adds its rows.
 * It only sums: ctburgers.exact.sine_wave_columns checks the values
 * against [0, 1], once for all of a run's times, on both paths.
 *
 * pulse writes sin(pi x), the sine problem's initial condition
 * ctburgers.exact.sine_pulse, on an array of points with libm's sin, the
 * function Python's math.sin calls.
 *
 * Every expression has the operands of the Python code in its
 * left-to-right order, and the build turns off contraction and fast-math,
 * so the results are the Python path's to the bit.
 *
 * rows writes the rows of a CSV file, each value with the bytes of
 * Python's '%.12g' % v.  The 12 digits come from scaling the value by a
 * power of ten.  floor(k log10 2) of its binary exponent k is its decimal
 * exponent or one below it; when the scaling rounds to 13 digits, the
 * exponent is one up and a second scaling gives the 12.  When one exact
 * power up to 10^22 does it, the correctly rounded product or quotient
 * gives the digits at once: rounding is monotonic, so it lies on the side
 * of n + 1/2 that the exact one does, unless it is n + 1/2 itself, and
 * only then is the exact remainder taken (Dekker's product).  Larger
 * scalings take factors of 10^22 first in double-double arithmetic, to
 * within 2^-50.  Zero, subnormals, inf, nan and a value whose inexact
 * scaling lies too close to a rounding tie, or overflows near DBL_MAX,
 * take their digits from glibc's correctly rounded %.11e instead.  The inexact scaling earns its place:
 * the |error| of a flat front, 1e-17 to 1e-11, is 16 % of the values of
 * the fine_mesh benchmark, and sending those to %.11e doubles the time
 * rows takes there (BENCH_csv_writer.json).  The digits are written two at
 * a time from a table of the pairs "00" to "99" and placed, with the
 * point, by copies of fixed size.  These write up to 24 bytes past the
 * start of a value, beyond its text, so every out buffer of rows and
 * snapshot ends in 32 spare bytes.
 *
 * snapshot writes the rows x,t,U,exact,|U - exact| of one run snapshot
 * with the digits of rows: it copies each knot's "x," from the knot rows
 * rows writes once for all of a run's snapshots, writes t once per row
 * and takes |U - exact| as fabs(u - ue), the same operation as numpy's
 * abs of the difference.  It finds the digits of a row's three values
 * before it writes the row.
 *
 * ctburgers._native declares every entry point below once, with its C
 * types, in _native._SIGNATURES, and uses the library only when every one
 * ends every one of a fixed set of known-answer marches, fits, rows, front
 * and sine rows, snapshot files and pulses as the Python path does, each
 * called from the Python function that calls it in production: on the
 * same zero-pivot row, the same bits and the same bytes
 * (_native._matches_python).
 *
 * Build (ctburgers._native.compile_command): cc -O2 -std=c99
 *     -ffp-contract=off -fno-fast-math -shared -fPIC -o LIB _finish.c -lm
 */

#include <float.h>
#include <math.h>
#include <stdio.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

/* Writes the lower, upper, diag and rhs entries of the collocation row whose
 * parameters are d[0..2], from the constants k of march; lower and upper
 * multiply d[0] and d[2].
 */
static inline void row(const double *k, const double *d, double *lo, double *up, double *dg,
                       double *rh)
{
    const double a1 = k[0], a2 = k[1], b1 = k[2], b2 = k[3], half_dt = k[4];
    const double lam_g1 = k[5], lam_g2 = k[6], rhs_outer = k[7], rhs_centre = k[8];
    const double d0 = d[0], d1 = d[1], d2 = d[2];
    double u, ux, a1_ux;

    /* U = (a1 d0 + a2 d1) + a1 d2,  U_x = b1 d0 + b2 d2 */
    u = a1 * d0 + a2 * d1 + a1 * d2;
    ux = b1 * d0 + b2 * d2;
    /* lower, upper = a1 + dt/2 ((a1 U_x + beta U) - lam g1) */
    a1_ux = a1 * ux;
    *lo = a1 + half_dt * (a1_ux + b1 * u - lam_g1);
    *up = a1 + half_dt * (a1_ux + b2 * u - lam_g1);
    /* diag = a2 + dt/2 (a2 U_x - lam g2) */
    *dg = a2 + half_dt * (a2 * ux - lam_g2);
    /* rhs = (a1 + dt/2 lam g1)(d0 + d2) + (a2 + dt/2 lam g2) d1 */
    *rh = rhs_outer * (d0 + d2) + rhs_centre * d1;
}

/* Whether a and b have the same bits.  == would take -0.0 for 0.0, which
 * divides into a quotient of the other sign, and never takes a NaN for
 * itself.
 */
static inline int same(double a, double b)
{
    unsigned long long x, y;

    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    return x == y;
}

/* the fewest parameters equal to their upper neighbour for which a step
 * looks for work to reuse */
#define REUSE_MIN 64

/* march calls step twice, with reuse 1 and 0: each call must be inlined,
 * so that the test of the constant folds away, and the variant without
 * reuse keeps the loops of a step that never looks for repeats */
#if defined(__GNUC__)
#define ALWAYS_INLINE __attribute__((always_inline))
#else
#define ALWAYS_INLINE
#endif

/* One step of march: assembles row i, folds a phantom into it if it is an
 * end row, and eliminates it at once; the back substitution then writes
 * the new parameters and the phantoms are restored.  Returns -1, or the
 * row of the first pivot whose magnitude is below the tolerance, with
 * delta unchanged.  *repeats is set to the number of new parameters
 * delta[j], 1 <= j < n, whose bits are those of delta[j + 1].
 *
 * With reuse, a row takes a value of the row before it in place of an
 * operation whose operands all have the bits of that row's: the same
 * operation on the same bits gives the same bits.  A row takes
 *   - the multiplier m = lo / piv when lo and piv repeat;
 *   - then also the forward update acc = rh - m acc when rh and the
 *     incoming acc repeat: that is the incoming acc itself;
 *   - in the back substitution, the new parameter when rhs, upper and diag
 *     repeat the next row's and the incoming parameter repeats that row's:
 *     that is the incoming parameter itself.
 * On a flat stretch of the state, where lo, up, dg and rh repeat, pivot
 * and acc settle on fixed bits within a few rows, and the dependent
 * divisions of the rows after are skipped.  Without reuse, every row
 * takes every operation and only counts the repeats.
 */
static inline ALWAYS_INLINE long step(double *bands, double *delta, const double *k, long n,
                                      const int reuse, long *repeats)
{
    double *upper = bands, *diag = bands + n, *rhs = bands + 2 * n;
    const double a1 = k[0], a2 = k[1];
    const double bc_left = k[9], bc_right = k[10], tol = k[11];
    double lo, up, dg, rh, first, last, piv, acc, m = 0.0, x, x_up;
    /* the operands of the previous row's division and forward update */
    double lo_was = 0.0, piv_was = 0.0, rh_was = 0.0, acc_was = 0.0;
    long i, count = 0;
    int same_m, flat = 0;

    row(k, delta, &lo, &up, &dg, &rh);
    /* delta_{-1} = (U_a - alpha2 d0 - alpha1 d1)/alpha1 */
    first = lo;
    dg -= first * a2 / a1;
    up -= first;
    rh -= first * bc_left / a1;
    /* Thomas sweep: row i's lower multiplies parameter i-1 */
    piv = dg;
    acc = rh;
    upper[0] = up;
    diag[0] = piv;
    rhs[0] = acc;
    for (i = 1; i < n; i++) {
        row(k, delta + i, &lo, &up, &dg, &rh);
        if (i == n - 1) {
            /* delta_{N+1} = (U_b - alpha1 d_{N-1} - alpha2 d_N)/alpha1 */
            last = up;
            dg -= last * a2 / a1;
            lo -= last;
            rh -= last * bc_right / a1;
        }
        if (fabs(piv) < tol)
            return i - 1;
        same_m = reuse && i > 1 && same(lo, lo_was) && same(piv, piv_was);
        if (!same_m) {
            lo_was = lo;
            piv_was = piv;
            m = lo / piv;
        }
        piv = dg - m * upper[i - 1];
        if (!(same_m && same(rh, rh_was) && same(acc, acc_was))) {
            acc_was = acc;
            acc = rh - m * acc;
        }
        rh_was = rh;
        upper[i] = up;
        diag[i] = piv;
        rhs[i] = acc;
    }
    if (fabs(piv) < tol)
        return n - 1;
    x = acc / piv;
    delta[n] = x;
    for (i = n - 2; i >= 0; i--) {
        x_up = x;
        /* flat: the incoming parameter repeats the previous row's */
        if (!(reuse && flat && same(rhs[i], rhs[i + 1]) && same(upper[i], upper[i + 1])
              && same(diag[i], diag[i + 1])))
            x = (rhs[i] - upper[i] * x) / diag[i];
        flat = same(x, x_up);
        count += flat;
        delta[i + 1] = x;
    }

    delta[0] = (bc_left - a2 * delta[1] - a1 * delta[2]) / a1;
    delta[n + 1] = (bc_right - a1 * delta[n - 1] - a2 * delta[n]) / a1;
    *repeats = count;
    return -1;
}

/* bands: (3, n) row-major scratch for the upper, diag and rhs entries the
 *        forward elimination leaves for the back substitution, n = N+1.
 * delta: the n+2 parameters, advanced in place one step at a time.
 * k:     alpha1, alpha2, beta1, beta2, dt/2, lam gamma1, lam gamma2,
 *        alpha1 + dt/2 lam gamma1, alpha2 + dt/2 lam gamma2,
 *        boundary_left, boundary_right, pivot tolerance.
 * n:     number of rows, at least 2.
 * steps: number of steps to take, in one call however many: the run cap
 *        scheme.MAX_CELL_STEPS keeps it below 10^11, far inside 64 bits.
 *
 * Each step is one step(), with reuse when at least REUSE_MIN of the
 * parameters it starts from repeat their upper neighbour bit for bit: the
 * count the previous step's back substitution kept, or, for a call's first
 * step, one taken on entry.  A state without such a stretch takes the
 * variant that does not look for repeats, whose tests would cost more than
 * they save.  Both variants give the same bits.
 *
 * Returns -1, or the row of the first pivot whose magnitude is below the
 * tolerance; delta then holds the parameters after the last completed
 * step.
 */
long march(double *bands, double *delta, const double *k, long n, long long steps)
{
    long repeats = 0, failed, j;
    long long s;

    for (j = 1; j < n; j++)
        repeats += same(delta[j], delta[j + 1]);
    for (s = 0; s < steps; s++) {
        if (repeats >= REUSE_MIN)
            failed = step(bands, delta, k, n, 1, &repeats);
        else
            failed = step(bands, delta, k, n, 0, &repeats);
        if (failed >= 0)
            return failed;
    }
    return -1;
}

/* bands: (n, 5) row-major; column j of row i holds the coefficient of
 *        unknown i + j - 2, and entries outside the matrix are zero.
 *        Overwritten by the elimination.
 * rhs:   the n right-hand sides, overwritten by the elimination.
 * x:     the n unknowns, written on success.
 * n:     number of rows, at least 1.
 * tol:   pivot tolerance.
 *
 * Returns -1, or the row of the first pivot whose magnitude is below the
 * tolerance; x is then unspecified.
 */
long fit(double *bands, double *rhs, double *x, long n, double tol)
{
    double piv, p3, p4, b, m, *row, *r;
    long col, i;

    for (col = 0; col < n - 1; col++) {
        row = bands + 5 * col;
        piv = row[2];
        p3 = row[3];
        p4 = row[4];
        if (fabs(piv) < tol)
            return col;
        b = rhs[col];
        row = bands + 5 * (col + 1);
        if (row[1] != 0.0) {
            m = row[1] / piv;
            row[2] -= m * p3;
            row[3] -= m * p4; /* outside the matrix, and never read, in the last row */
            rhs[col + 1] -= m * b;
        }
        if (col + 2 < n) {
            row = bands + 5 * (col + 2);
            if (row[0] != 0.0) {
                m = row[0] / piv;
                row[1] -= m * p3;
                row[2] -= m * p4;
                rhs[col + 2] -= m * b;
            }
        }
    }
    if (fabs(bands[5 * (n - 1) + 2]) < tol)
        return n - 1;
    x[n - 1] = rhs[n - 1] / bands[5 * (n - 1) + 2];
    if (n > 1) {
        r = bands + 5 * (n - 2);
        x[n - 2] = (rhs[n - 2] - r[3] * x[n - 1]) / r[2];
    }
    for (i = n - 3; i >= 0; i--) {
        r = bands + 5 * i;
        x[i] = ((rhs[i] - r[3] * x[i + 1]) - r[4] * x[i + 2]) / r[2];
    }
    return -1;
}

/* x:   the n points of the column.
 * n:   number of points.
 * alpha, mu, gamma, lam: the front's constants; t: the time.
 * out: the n values, written.
 *
 * Writes the traveling front of ctburgers.exact.traveling_wave_exact at
 * time t: the value falls from alpha + mu far left of x = mu t + gamma to
 * mu - alpha far right.  exp is only ever taken of a value <= 0, so it
 * never overflows; it is the libm exp that Python's math.exp calls.
 */
void front(const double *x, long n, double alpha, double mu, double t, double gamma,
           double lam, double *out)
{
    const double mu_t = mu * t, far_left = alpha + mu, far_right = mu - alpha;
    double eta, e;
    long i;

    for (i = 0; i < n; i++) {
        eta = alpha * (x[i] - mu_t - gamma) / lam;
        if (eta > 0.0) {
            e = exp(-eta);
            out[i] = (far_left * e + far_right) / (e + 1.0);
        } else {
            e = exp(eta);
            out[i] = (far_left + far_right * e) / (1.0 + e);
        }
    }
}

/* points whose sums are taken together: their additions do not wait on
 * each other, so they overlap in the pipeline */
#define SINE_POINTS 4

/* Writes scale num / den at the k <= SINE_POINTS points whose table
 * columns start at s and c, n apart from one term to the next.
 */
static inline void sine_sums(const double *s, const double *c, const double *jr,
                             const double *r2, const double *e, long terms, long n, long k,
                             double scale, double *out)
{
    double num[SINE_POINTS], den[SINE_POINTS];
    long i, j;

    for (i = 0; i < k; i++) {
        num[i] = 0.0;
        den[i] = 1.0;
    }
    for (j = 0; j < terms; j++)
        for (i = 0; i < k; i++) {
            num[i] += jr[j] * s[j * n + i] * e[j];
            den[i] += r2[j] * c[j * n + i] * e[j];
        }
    for (i = 0; i < k; i++)
        out[i] = scale * num[i] / den[i];
}

/* n:       number of points.
 * s, c:    (terms, n) row-major: sin(pi j x_i) and cos(pi j x_i) in row j - 1.
 * factors: (3, terms) row-major: j r_j, 2 r_j and e_j in column j - 1.
 * terms:   number of terms J, at least 1.
 * scale:   4 pi lam.
 * out:     the n values, written.
 *
 * Writes the sine wave of ctburgers.exact.sine_wave_exact: the quotient
 * scale num / den of num = sum_j (j r_j s_j) e_j and den = 1 +
 * sum_j (2 r_j c_j) e_j, each added in ascending j from 0.0 and 1.0.
 */
void sine(long n, const double *s, const double *c, const double *factors, long terms,
          double scale, double *out)
{
    const double *jr = factors, *r2 = factors + terms, *e = factors + 2 * terms;
    long i;

    for (i = 0; i + SINE_POINTS <= n; i += SINE_POINTS)
        sine_sums(s + i, c + i, jr, r2, e, terms, n, SINE_POINTS, scale, out + i);
    if (i < n)
        sine_sums(s + i, c + i, jr, r2, e, terms, n, n - i, scale, out + i);
}

/* x:   the n points of the column.
 * n:   number of points.
 * out: the values, written up to the first infinite angle.
 *
 * Writes sin(pi x), the initial condition of ctburgers.exact.sine_pulse,
 * with libm's sin, the function Python's math.sin calls; the literal is
 * the double math.pi holds, as M_PI is not C99.  Returns -1, or the index
 * of the first point whose angle pi x is infinite (x infinite, or so large
 * that the product overflows), where math.sin raises ValueError.
 */
long pulse(const double *x, long n, double *out)
{
    double angle;
    long i;

    for (i = 0; i < n; i++) {
        angle = 3.141592653589793 * x[i];
        if (isinf(angle))
            return i;
        out[i] = sin(angle);
    }
    return -1;
}

/* POW10[j] is 10^j, which a double holds exactly for j up to 22 */
static const double POW10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22
};

#define DIGITS 12
#define TEN_TO_DIGITS 1000000000000LL

/* how close to a tie an inexact scaling may come: its at most 15 steps,
 * each within about 2^-101 relative, keep a 10^s < 2^44 within 2^-50 */
#define NEAR_TIE 0x1p-40

/* hi + lo = a b exactly (Dekker's product), barring overflow and underflow */
static void two_product(double a, double b, double *hi, double *lo)
{
    double t, a_hi, a_lo, b_hi, b_lo;

    t = 134217729.0 * a; /* 2^27 + 1 */
    a_hi = t - (t - a);
    a_lo = a - a_hi;
    t = 134217729.0 * b;
    b_hi = t - (t - b);
    b_lo = b - b_hi;
    *hi = a * b;
    *lo = ((a_hi * b_hi - *hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo;
}

/* hi + lo times p: exact when lo is 0 */
static void times(double *hi, double *lo, double p)
{
    double h, l;

    two_product(*hi, p, &h, &l);
    *hi = h;
    *lo = l + *lo * p;
}

/* hi + lo over p: when lo is 0, lo gets the sign of the exact remainder */
static void divide(double *hi, double *lo, double p)
{
    double q = *hi / p, h, l;

    /* the remainder hi - q p is a double */
    two_product(q, p, &h, &l);
    *lo = (((*hi - h) - l) + *lo) / p;
    *hi = q;
}

/* hi + lo = a 10^s: exactly for |s| <= 22, where one exact power of ten
 * scales it, and within 2^-50 when factors of 10^22 come first */
static void scale(double a, int s, double *hi, double *lo)
{
    *hi = a;
    *lo = 0.0;
    for (; s > 22; s -= 22)
        times(hi, lo, 1e22);
    for (; s < -22; s += 22)
        divide(hi, lo, 1e22);
    if (s >= 0)
        times(hi, lo, POW10[s]);
    else
        divide(hi, lo, POW10[-s]);
}

/* Writes the integer nearest a 10^s, ties to even, to out, for a positive
 * normal a with a 10^s in [10^11, 10^13).  Returns 0, with out unwritten,
 * when an inexact scaling lies too close to a tie to tell its side or
 * overflows.
 */
static int nearest(double a, int s, long long *out)
{
    double hi, lo, half;
    long long n;

    if (s >= -22 && s <= 22) {
        /* fl(a 10^s) is correctly rounded and rounding is monotonic, so it
         * lies on the side of n + 1/2 that a 10^s does, unless it is that
         * double below 2^44 itself (its fraction, a multiple of the ulp of
         * hi, is exact) */
        hi = s >= 0 ? a * POW10[s] : a / POW10[-s];
        n = (long long) hi;
        half = (hi - (double) n) - 0.5;
        if (half == 0.0) {
            /* then the exact remainder of the product or quotient decides,
             * and 0 is a tie */
            scale(a, s, &hi, &lo);
            half = lo;
        }
    } else {
        scale(a, s, &hi, &lo);
        n = (long long) hi;
        half = (hi - (double) n) - 0.5 + lo;
        /* within about 2^-27 of DBL_MAX, the split in the first division's
         * product overflows and leaves lo infinite or NaN */
        if (!isfinite(lo) || fabs(half) < NEAR_TIE)
            return 0;
    }
    *out = n + (half > 0.0 || (half == 0.0 && n % 2 != 0));
    return 1;
}

/* Writes |v|'s 12 significant digits, correctly rounded with ties to even,
 * as an integer in [10^11, 10^12) to digits and its decimal exponent to
 * exp10, for a normal v of binary exponent k.  Returns 0 when nearest
 * cannot give them.
 */
static int decimal(double v, int k, long long *digits, int *exp10)
{
    const double a = fabs(v);
    /* floor(k log10 2): the decimal exponent of a or one below it, so
     * a 10^(11 - e) lies in [10^11, 10^13) */
    int e = k >= 0 ? (k * 78913) >> 18 : -((-k * 78913 + 262143) >> 18);

    if (!nearest(a, DIGITS - 1 - e, digits))
        return 0;
    /* 13 digits: e is one below the exponent, or the rounding carried,
     * 99..9.5 -> 10^12, and the exponent moved up.  A fresh scaling gives
     * the digits: dividing these would round them twice */
    if (*digits >= TEN_TO_DIGITS) {
        e++;
        if (!nearest(a, DIGITS - 1 - e, digits))
            return 0;
    }
    *exp10 = e;
    return 1;
}

/* "00" .. "99": the two digits of 0 <= r < 100 start at PAIRS + 2 r */
static const char PAIRS[201] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

/* Writes the 6 decimal digits of v < 10^6, leading zeros included, at d. */
static inline void six(char *d, unsigned v)
{
    memcpy(d + 4, PAIRS + 2 * (v % 100), 2);
    v /= 100;
    memcpy(d + 2, PAIRS + 2 * (v % 100), 2);
    memcpy(d, PAIRS + 2 * (v / 100), 2);
}

/* Writes the 12 digits of hi 10^6 + lo, leading zeros included, at d. */
static inline void twelve(char *d, unsigned hi, unsigned lo)
{
    six(d, hi);
    six(d + DIGITS / 2, lo);
}

/* The number of digits of hi 10^6 + lo, a number in [10^11, 10^12) or 0,
 * without its trailing zeros: at least 1. */
static inline int significant(unsigned hi, unsigned lo)
{
    unsigned v = lo != 0 ? lo : hi;
    int k = lo != 0 ? DIGITS : DIGITS / 2;

    if (v % 10 != 0)
        return k;
    if (v == 0)
        return 1;
    if (v % 1000 == 0) {
        v /= 1000;
        k -= 3;
    }
    if (v % 100 == 0) {
        v /= 100;
        k -= 2;
    }
    return k - (v % 10 == 0);
}

/* Writes the %.12g text of sign, the 12 digits of n (0, or in
 * [10^11, 10^12)) and the decimal exponent e at p; returns its end.
 *
 * The digits and the point are placed with copies of fixed size, so bytes
 * past the end are written too: no byte more than 24 past p, which is
 * what the 32 spare bytes at the end of an out buffer of rows or snapshot
 * are for.
 */
static char *layout(char *p, int negative, long long n, int e)
{
    const unsigned hi = (unsigned) (n / 1000000), lo = (unsigned) (n % 1000000);
    const int k = significant(hi, lo);

    *p = '-';
    p += negative;
    if (e < -4 || e >= DIGITS) {
        /* d.ddde-dd: the digits from p + 1, the first moved in front of the
         * point */
        twelve(p + 1, hi, lo);
        p[0] = p[1];
        p[1] = '.';
        p += k > 1 ? k + 1 : 1;
        memcpy(p, e < 0 ? "e-" : "e+", 2);
        if (e < 0)
            e = -e;
        if (e >= 100) {
            p[2] = (char) ('0' + e / 100);
            p++;
        }
        memcpy(p + 2, PAIRS + 2 * (e % 100), 2);
        return p + 4;
    }
    if (e >= 0) {
        /* ddd.ddd: the digits after the point moved one place on */
        char tail[DIGITS - 1];

        twelve(p, hi, lo);
        memcpy(tail, p + e + 1, DIGITS - 1);
        memcpy(p + e + 2, tail, DIGITS - 1);
        p[e + 1] = '.';
        return p + (k > e + 1 ? k + 1 : e + 1);
    }
    /* 0.ddd to 0.000ddd: the -e - 1 zeros after the point, then the digits,
     * written over the rest of the zeros */
    memcpy(p, "0.000", 5);
    twelve(p + 1 - e, hi, lo);
    return p + 1 - e + k;
}

/* Writes the %.12g text of v from glibc's correctly rounded %.11e; only
 * its sign, digits, exponent and the letters of inf and nan are read, so
 * the locale's decimal point cannot matter.
 */
static char *exact_text(char *p, double v)
{
    char text[32], *c = text;
    long long n = 0;
    int negative, e = 0, e_negative;

    snprintf(text, sizeof text, "%.11e", v);
    negative = *c == '-';
    c += negative;
    /* Python writes every NaN as nan, glibc a negative one as -nan */
    if (*c == 'n')
        negative = 0;
    if (*c == 'i' || *c == 'n') {
        if (negative)
            *p++ = '-';
        memcpy(p, c, 3);
        return p + 3;
    }
    for (; *c != 'e'; c++)
        if (*c >= '0' && *c <= '9')
            n = 10 * n + (*c - '0');
    e_negative = *++c == '-';
    for (c++; *c != '\0'; c++)
        e = 10 * e + (*c - '0');
    return layout(p, negative, n, e_negative ? -e : e);
}

/* The 12 digits and the decimal exponent of a value, or digits -1 when its
 * text comes from exact_text. */
typedef struct {
    long long digits;
    int e;
} Decimal;

static Decimal decimal_of(double v)
{
    unsigned long long bits;
    Decimal d = {-1, 0};
    int k;

    memcpy(&bits, &v, sizeof bits);
    k = (int) ((bits >> 52) & 0x7ff) - 1023;
    /* zero and subnormals have k = -1023, inf and nan k = 1024 */
    if (!(k > -1023 && k < 1024 && decimal(v, k, &d.digits, &d.e)))
        d.digits = -1;
    return d;
}

/* Writes the %.12g text of v, whose decimal_of is d, at p; returns its end. */
static char *put(char *p, double v, Decimal d)
{
    return d.digits >= 0 ? layout(p, v < 0.0, d.digits, d.e) : exact_text(p, v);
}

/* Writes the %.12g text of v at p; returns its end. */
static char *format(char *p, double v)
{
    return put(p, v, decimal_of(v));
}

/* cols:   (width, n) row-major: column j of the CSV is cols[j n .. j n + n - 1].
 * width:  number of value columns, at least 1.
 * n:      number of rows.
 * t_text: NUL-terminated text written as the second field of every row.
 * out:    room for at least n (20 width + strlen(t_text) + 1) + 32 bytes:
 *         a value takes at most 19, as in -1.23456789012e-308, and the
 *         last 32 take the bytes format writes past the end of a value.
 *
 * Writes the rows c0,<t_text>,c1,...,c_{width-1} and a newline, each value
 * with the bytes of Python's '%.12g' % v; returns the number of bytes.
 */
long rows(const double *cols, long width, long n, const char *t_text, char *out)
{
    const size_t t_len = strlen(t_text);
    char *p = out;
    long i, j;

    for (i = 0; i < n; i++) {
        p = format(p, cols[i]);
        *p++ = ',';
        memcpy(p, t_text, t_len);
        p += t_len;
        for (j = 1; j < width; j++) {
            *p++ = ',';
            p = format(p, cols[j * n + i]);
        }
        *p++ = '\n';
    }
    return (long) (p - out);
}

/* knot_rows:  the n rows x, and a newline each, end to end, as rows writes
 *             the knot column with an empty t_text.
 * u, ue:      the n numerical and exact values.
 * n:          number of rows.
 * t_text:     NUL-terminated text written as the second field of every row.
 * out:        room for the length of knot_rows + n (strlen(t_text) + 60)
 *             + 32 bytes: each of the three values takes at most 19 and a
 *             separator, a knot row's newline makes room for the row's, and
 *             the last 32 take the bytes format writes past a value's end.
 *
 * Writes the rows <knot text>,<t_text>,u,ue,|u - ue| and a newline, each
 * value with the bytes of Python's '%.12g' % v; returns the number of
 * bytes.
 */
long snapshot(const char *knot_rows, const double *u, const double *ue, long n,
              const char *t_text, char *out)
{
    const size_t t_len = strlen(t_text);
    const char *k = knot_rows;
    char *p = out;
    double err;
    Decimal du, de, derr;
    long i;

    for (i = 0; i < n; i++) {
        /* the sign bit cleared, NaN's too, as numpy's abs does */
        err = fabs(u[i] - ue[i]);
        /* the digits of the row's three values first: they do not wait on
         * where the text before them ends, so they overlap with writing it */
        du = decimal_of(u[i]);
        de = decimal_of(ue[i]);
        derr = decimal_of(err);
        while (*k != '\n')
            *p++ = *k++;
        k++;
        memcpy(p, t_text, t_len);
        p += t_len;
        *p++ = ',';
        p = put(p, u[i], du);
        *p++ = ',';
        p = put(p, ue[i], de);
        *p++ = ',';
        p = put(p, err, derr);
        *p++ = '\n';
    }
    return (long) (p - out);
}
