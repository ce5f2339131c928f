/* The double-loop recursion of _kernels._recur, in C.

   A line-for-line port: the same operations in the same order, so with
   -ffp-contract=off (no fused multiply-add) every state is bit-identical
   to the Python reference.  f == NULL means the constant input beta;
   q_out == NULL means "do not record".  The caller guarantees that f and
   the three output arrays hold at least n_steps doubles.

   Returns the 0-based step at which |u| > ubound or |v| > vbound (a NaN
   state fails the same test), or -1 if all n_steps stayed bounded, and
   stores the largest |v| seen up to and including that step in *vmax_out.
*/
#include <math.h>
#include <stddef.h>

long long sdlab_recur(double lam1, double lam2, double gamma, int kind,
                      double tau, const double *f, double beta,
                      long long n_steps, double ubound, double vbound,
                      double *q_out, double *u_out, double *v_out,
                      double *vmax_out)
{
    int trilevel = kind == 1;
    double u = 0.0, v = 0.0, vmax = 0.0;
    for (long long i = 0; i < n_steps; i++) {
        double s = u + gamma * v;
        double q;
        if (trilevel && (-tau < s && s < tau))
            q = 0.0;
        else if (s >= 0.0)
            q = 1.0;
        else
            q = -1.0;
        double w = lam1 * u + ((f == NULL ? beta : f[i]) - q);
        v = w + lam2 * v;
        u = w;
        if (q_out != NULL) {
            q_out[i] = q;
            u_out[i] = u;
            v_out[i] = v;
        }
        double av = fabs(v);
        if (av > vmax)
            vmax = av;
        if (!(av <= vbound && fabs(u) <= ubound)) {
            *vmax_out = vmax;
            return i;
        }
    }
    *vmax_out = vmax;
    return -1;
}
