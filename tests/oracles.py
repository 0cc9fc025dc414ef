"""Reference code that only the tests call: each checks a src result another way.

`plan_trace` replays an optimal plan through the trace validator, and
`det_lb_value_grid` minimizes the deterministic lower bound by brute force.
"""

from testsched.analysis import det_lb_alg, det_lb_opt
from testsched.core import EXEC_TESTED, EXEC_UNTESTED, TEST, Instance, Num, Trace, build_trace
from testsched.offline import OptPlan


def plan_trace(inst: Instance, plan: OptPlan) -> Trace:
    """Materialize an OptPlan as a replayable trace."""
    uppers, procs = inst.uppers(), inst.procs()
    steps = []
    t: Num = 0
    for jid in plan.order:
        if jid in plan.tested:
            steps.append((TEST, jid, t, 1))
            t = t + 1
            steps.append((EXEC_TESTED, jid, t, procs[jid]))
            t = t + procs[jid]
        else:
            steps.append((EXEC_UNTESTED, jid, t, uppers[jid]))
            t = t + uppers[jid]
    return build_trace(inst.n, steps)


def det_lb_value_grid(delta, p_bar, steps=400):
    """Same bound by brute 2-D minimization over (nu, lam); cross-check."""
    best = None
    for i in range(steps + 1):
        nu = delta * i / steps
        opt = det_lb_opt(nu, delta, p_bar)
        for k in range(steps + 1):
            lam = (delta - nu) * k / steps
            v = det_lb_alg(nu, lam, delta, p_bar) / opt
            if best is None or v < best:
                best = v
    return best
