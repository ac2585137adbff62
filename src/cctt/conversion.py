"""Definitional equality.

Weak-head normalization implements the judgemental equalities: beta for
functions, pairs, clocks, ticks and paths; the forcing-tick beta rule; the
diamond-gated unfolding of dfix and pfix (which, with the step budget,
keeps conversion terminating in practice: the theory has no normalization
theorem); tirr endpoint rules and the diamond collapse; demotion of
diamond-free forcing applications; composition per type head (at a higher
inductive type, hcomp over trans); a constructor whose face holds reducing
to its boundary piece; and the rules of induction under clocks.  `conv`
asks syntactic equality first (`syntax.closure_equal`), as Lean 4's
`is_def_eq` does: most comparisons the checker makes are of equal terms.

`whnf` is a Krivine-style environment machine (Krivine, "A call-by-name
lambda-calculus machine", 2007): a term, the substitution pending on it
(its environment, term payloads closures) and a stack of arguments.
`_whnf_env` returns the head and its environment, which `whnf` applies
once.  An application pushes its argument closed over the environment, an
abstraction takes the top one into it, a variable continues in what it
stands for, and the other heads read their small parts (a clock, tick,
interval or face) under it.  A head left with arguments is the application
spelled with variables, under the environment sending them to the head and
the arguments.  A step is counted, in the loop, per application walked,
abstraction taken and definition unfolded; entering a closure is none, so a
closure and its materialisation take the same steps.

The machine goes under a binder of the term without applying anything, as
Coquand's algorithm compares under a binder by a fresh variable (Coquand,
"An algorithm for type-checking dependent types", SCP 1996): `ticks.lift`
sends the new variable to itself and leaves each payload's move past it
pending (`syntax.then`).  So forcing with a diamond reduces its function
under its environment lifted past the clock, and a tick-free body of the
tick abstraction reached continues with the clock sent to k; `clockelim^n`
peels its clocks under its environment; a recursive call is the
eliminator's own fields on a new scrutinee variable (`ticks.bind_at`); eta
at a binder type compares both sides applied to the bound variable
(`_eta`); and `conv_tm` compares constructors, abstractions and stuck
applications part by part, as closures.  An environment is still applied
where a rule builds terms from the head's parts: composition, transport, a
path application's stuck function, a tick or forcing application under a
forcing tick, a tick abstraction forced whose body uses a tick, a
constructor under an eliminator's clocks, and `conv_tm`'s other heads.

A comparison under a face is one in a restricted context: `conv` answers
at once where the restriction is false, and otherwise compares on each of
its clauses, with the clause's endpoints as the environment of the type
and both sides and the restriction set back to true (each clause of a meet
contains a clause of each face met).  Whether a type line mentions its
interval variable (`_mentions_ival0`) is whether strengthening it past
that variable fails.  A boundary piece is scoped in its data type's
telescope, so firing it is one `subst`; `_filler` builds the extent and
tube system of a filler, which `_fill_fwd` composes along a line and
`hfill` homogeneously.
"""

from functools import lru_cache

from .errors import (
    CaseMissing, CcttError, FuelExhausted, IllFormedRedex, TickEscape,
)
from .interval import (
    FEq, FOr, FTOP, IVar, IJoin, IMeet, INeg, IZERO, IONE,
    face_clauses, face_entails, face_is_false, face_is_true, face_of_equation,
    face_split, iv_substitute,
)
from .syntax import (
    App, CApp, CForcedTick, CLam, CLOCK, ClockElim, Closure, Comp, Con,
    Context, DFix, Diamond, EClock, EIVar, ETick, EVar, Fst,
    ForceApp, Forall, HComp, Hit, IVAL, Lam, Later, PApp, PFix, PLam, Pair,
    PathT, Pi, Sigma, Snd, Substitution, System, TERM, TICK, TickApp, TickLam,
    TickVar, Tirr, TopRef, Trans, U, Var, ZERO, C1, I1, T1, K1, _SORTS,
    _WALKED, _shift_subst, close, closure_equal, loose_bound, shape,
    strengthen, subst, then, weaken, weaken_iv,
)
from .ticks import (
    bind, bind_at, clause_subst, extend, force, has_forcing_tick, image_iv,
    image_tick, lift, lookup, lookup_clock, subst_apply,
)


def is_neutral(t):
    # Post-whnf approximation: anything that is not a canonical form.
    return not isinstance(t, (
        Lam, Pair, PLam, CLam, TickLam, Pi, Sigma, PathT, Forall, Later,
        U, Hit, Con, DFix, PFix, System,
    ))


# --------------------------------------------------------------------------
# Substitution helpers
# --------------------------------------------------------------------------

# Each takes the shape of the scope it substitutes into (a context's
# `counts`), or None for unchecked.

def subst_ival1(scope, body, r):
    return subst_apply(subst(scope, ivals=(r,)), body)


# --------------------------------------------------------------------------
# Tick weak-head forms
# --------------------------------------------------------------------------

def tick_whnf(u):
    match u:
        case Tirr(l, r, at):
            left, right = tick_whnf(l), tick_whnf(r)
            if at == IZERO:
                return left
            if at == IONE:
                return right
            if isinstance(left, Diamond) and isinstance(right, Diamond):
                return Diamond()
            return Tirr(left, right, at)
        case _:
            return u


def tick_has_diamond(u):
    match u:
        case Diamond():
            return True
        case Tirr(l, r, _):
            return tick_has_diamond(l) or tick_has_diamond(r)
        case _:
            return False


# --------------------------------------------------------------------------
# Weak-head normalization
# --------------------------------------------------------------------------

# Classes whose terms are weak-head normal when no argument is pending.
_HEAD_NORMAL = frozenset({
    Var, U, Pi, Sigma, Lam, Pair, PLam, CLam, TickLam, PathT, Forall, Later,
    Hit, DFix, PFix,
})

# Classes the machine takes its rule for under a pending environment; any
# other head has the environment applied first.
_UNDER_ENV = _HEAD_NORMAL | {Fst, Snd, PApp, TickApp, ForceApp, Con,
                             ClockElim, Comp, HComp, System}


def whnf(state, ctx, t):
    """The weak-head normal form of t, a term or a closure, in ctx (see the
    module docstring): the machine's head with its environment applied."""
    head, env = _whnf_env(state, ctx, t)
    return head if env is None else subst_apply(env, head)


def fuel_exhausted(state):
    raise FuelExhausted(f"exceeded the step budget of {state.max_steps}")


def _whnf_env(state, ctx, t, env=None):
    """The machine: the weak-head normal form of t (a term or a closure)
    under env, as a head and the environment pending on it (None when there
    is none)."""
    if type(t) is Closure:
        t, env = t.term, t.env
    cls = type(t)
    limit = state.max_steps
    if cls in _HEAD_NORMAL and (env is None or cls is not Var):
        state.steps += 1
        if state.steps > limit:
            fuel_exhausted(state)
        return t, env
    spine = []   # arguments, innermost last: closures and clock indices
    while True:
        # The machine's own cases run once per step: they test the type
        # directly rather than through `match`.
        cls = type(t)
        if cls is Var and env is not None:
            t, env = lookup(env, t.ix)  # not a step
            continue
        state.steps += 1
        if state.steps > limit:
            fuel_exhausted(state)
        if cls is App:
            spine.append(close(env, t.arg))
            t = t.fn
            continue
        if cls is Lam and spine and type(spine[-1]) is not int:
            env = bind(env, ctx.counts, TERM, spine.pop())
            t = t.body
            continue
        if cls is CApp:
            k = t.clock
            spine.append(k if env is None else lookup_clock(env, k))
            t = t.fn
            continue
        if cls is CLam and spine and type(spine[-1]) is int:
            env = bind(env, ctx.counts, CLOCK, spine.pop())
            t = t.body
            continue
        if cls is TopRef:
            body = state.definition_body(t.name)
            if body is None:
                return _stuck(t, None, spine)
            t, env = body, None
            continue
        if cls is Con:
            ctor = state.signature(t.name).constructor(t.label)
            # A point constructor (empty face) never fires a boundary.
            if ctor.face:
                ivals = _ivals_under(env, t.ivals)
                if face_is_true(_ctor_face(ctor, ivals)):
                    t, env = _boundary_fire(ctx.counts, ctor, env, t.params,
                                            t.args, t.recs, ivals)
                    continue
            return _stuck(t, env, spine)
        if env is not None and (
                cls not in _UNDER_ENV
                or cls in (TickApp, ForceApp) and has_forcing_tick(env)):
            # Applying a forcing tick can turn a simple tick application
            # into a forcing one, so those heads see it applied.
            t, env = subst_apply(env, t), None
        match t:
            case ClockElim():
                reduced = elim_reduce(state, ctx, t, env)
                if reduced is None:
                    return _stuck(t, env, spine)
                t, env = reduced

            case PApp(fn, r):
                r = image_iv(env, r)
                fn, fenv = _whnf_env(state, ctx, fn, env)
                if type(fn) is PLam:
                    t, env = fn.body, bind(fenv, ctx.counts, IVAL, r)
                    continue
                fn, env = _materialise(fn, fenv), None
                unfolded = _pfix_unfold(state, ctx, fn)
                if unfolded is not None:
                    t, env = unfolded
                    continue
                if r == IZERO or r == IONE:
                    endpoint = _path_endpoint(state, ctx, fn, r == IONE)
                    if endpoint is not None:
                        t, env = endpoint
                        continue
                return _stuck(PApp(fn, r), None, spine)

            case TickApp(fn, u):
                u = tick_whnf(image_tick(env, u))
                fn, fenv = _whnf_env(state, ctx, fn, env)
                if type(fn) is TickLam:
                    t, env = fn.body, bind(fenv, ctx.counts, TICK, u)
                else:
                    return _stuck(TickApp(_materialise(fn, fenv), u), None,
                                  spine)

            case ForceApp(fn, k, u):
                tick = u
                if env is not None:
                    k, u = lookup_clock(env, k), image_tick(env, u)
                u = tick_whnf(u)
                if not tick_has_diamond(u):
                    # Diamond-free forcing demotes to a simple application;
                    # its tick, clock-free, reads the same under the clock.
                    t, env = TickApp(fn, tick), bind(env, ctx.counts, CLOCK, k)
                    continue
                # fn binds the clock: it is reduced under env lifted past
                # it, and what it reduces to continues with the clock sent
                # to k.
                inner = ctx.push(EClock())
                fn, fenv = _whnf_env(state, inner, fn, lift(env, CLOCK))
                if type(fn) is TickLam and not loose_bound(fn.body)[2]:
                    # The body, tick-free, reads the clock as k.
                    t, env = fn.body, then(
                        fenv, bind(None, ctx.counts, CLOCK, k))
                elif type(fn) is TickLam:
                    # The forcing tick turns a tick application on the
                    # bound tick into a forcing one, abstracting the clock
                    # again: it is substituted into the body built.
                    t, env = _materialise(fn, fenv).body, subst(
                        ctx.counts, clocks=(k,), ticks=(CForcedTick(0, u),))
                elif type(fn) is DFix and type(u) is Diamond \
                        and lookup_clock(fenv, fn.clock) == 0:
                    t, env = App(fn.fn, fn), then(
                        fenv, bind(None, ctx.counts, CLOCK, k))
                else:
                    return _stuck(ForceApp(_materialise(fn, fenv), k, u),
                                  None, spine)

            case Fst(p):
                p, penv = _whnf_env(state, ctx, p, env)
                if type(p) is Pair:
                    t, env = p.fst, penv
                else:
                    return _stuck(Fst(_materialise(p, penv)), None, spine)

            case Snd(p):
                p, penv = _whnf_env(state, ctx, p, env)
                if type(p) is Pair:
                    t, env = p.snd, penv
                else:
                    return _stuck(Snd(_materialise(p, penv)), None, spine)

            case Comp(_, face, tube, _) | HComp(_, face, tube, _) \
                    if face_is_true(image_iv(env, face)):
                # The tube at the end of the line.
                t, env = tube, bind(env, ctx.counts, IVAL, IONE)

            case System(parts):
                for phi, u in parts:
                    if face_is_true(image_iv(env, phi)):
                        t = u
                        break
                else:
                    return _stuck(t, env, spine)

            case Comp():
                t = _materialise(t, env)
                reduced = comp_eval(state, ctx, t)
                if reduced is None:
                    return _stuck(t, None, spine)
                t, env = reduced, None

            case HComp():
                t = _materialise(t, env)
                head = whnf(state, ctx, t.ty)
                if isinstance(head, (Hit, U)) or is_neutral(head):
                    return _stuck(HComp(head, t.face, t.tube, t.base), None,
                                  spine)
                # Other type heads: compose along the constant line.
                t, env = Comp(weaken(head, I1), t.face, t.tube,
                              t.base), None

            case Trans(ty, face, base):
                reduced = _trans_step(state, ctx, ty, face, base)
                if reduced is None:
                    return _stuck(t, None, spine)
                t = reduced

            case _:
                return _stuck(t, env, spine)


def _materialise(head, env):
    """head with env applied."""
    return head if env is None else subst_apply(env, head)


def _stuck(head, env, spine):
    """The machine's answer for a head under env that no rule applies to,
    with the arguments left on the spine: the head under env, or else the
    head, variable n, applied to the n term arguments (variables n-1 to 0)
    and to the clocks, under the environment sending the variables to
    them."""
    if not spine:
        return head, env
    terms = [x for x in spine if type(x) is not int]
    n = len(terms)
    t = Var(n)
    for x in reversed(spine):
        if type(x) is int:
            t = CApp(t, x)
        else:
            n -= 1
            t = App(t, Var(n))
    terms.append(head if env is None else Closure(head, env))
    return t, Substitution(None, (tuple(terms), (), (), ()))


def _pfix_unfold(state, ctx, fn):
    """(kappa.pfix f)[(k, <>)] applied to any path argument unfolds to
    (f (dfix f))[k/kappa], returned as f (dfix f) and the environment
    sending kappa to k."""
    if not isinstance(fn, ForceApp) or not isinstance(fn.tick, Diamond):
        return None
    inner = whnf(state, ctx.push(EClock()), fn.fn)
    if isinstance(inner, PFix) and inner.clock == 0:
        f = inner.fn
        return App(f, DFix(0, f)), bind(None, ctx.counts, CLOCK, fn.clock)
    return None


def _path_endpoint(state, ctx, fn, right):
    """The endpoint of the path fn, read off its type: a term and the
    environment pending on it, or None."""
    try:
        ty, env = _whnf_env(state, ctx, state.infer(ctx, fn))
    except FuelExhausted:
        raise
    except CcttError:
        return None
    if type(ty) is PathT:
        return (ty.right if right else ty.left), env
    return None


# --------------------------------------------------------------------------
# Fillers
# --------------------------------------------------------------------------

def _filler(scope, face, tube, base, r):
    """What a filler at level r composes: the substitution cutting a line
    (binding the line variable) at r /\\ i, the extent, and the tube system,
    which follows tube on `face` and equals base at r=0.  tube binds the
    line variable; face, base, r do not.  `scope` is a shape."""
    cut = subst(scope, ivals=(IMeet(weaken_iv(r, I1), IVar(0)),), fresh=I1)
    sys = System((
        (weaken_iv(face, I1), subst_apply(cut, tube)),
        (face_of_equation(weaken_iv(r, I1), 0), weaken(base, I1)),
    ))
    return cut, FOr(face, face_of_equation(r, 0)), sys


def _fill_fwd(scope, line, face, tube, base, r):
    """Filler value at level r: equals base at r=0 and follows tube on
    `face`, along line (which binds the line variable)."""
    cut, total, sys = _filler(scope, face, tube, base, r)
    return Comp(subst_apply(cut, line), total, sys, base)


def _fill_bwd(scope, line, face, goal, r):
    """Backward transport: value at level r, equal to `goal` at r=1 and
    constant on `face`."""
    rj = IJoin(weaken_iv(r, I1), INeg(IVar(0)))
    line_cut = subst_apply(subst(scope, ivals=(rj,), fresh=I1), line)
    phi = FOr(face, face_of_equation(r, 1))
    return Comp(line_cut, phi, weaken(goal, I1), goal)


def hfill(scope, ty, face, tube, base, j):
    """Filling from hcomp by a connection: equal to base at j=0, to the
    full hcomp at j=1, and to the tube on `face` (`_filler`)."""
    _, total, sys = _filler(scope, face, tube, base, j)
    return HComp(ty, total, sys, base)


# --------------------------------------------------------------------------
# Composition per type head
# --------------------------------------------------------------------------

def comp_eval(state, ctx, p):
    """One reduction of a composition p (a `Comp`) whose face does not hold
    (the machine takes the tube at 1 itself when it does), or None when
    stuck."""
    ictx = ctx.push(EIVar())
    head = whnf(state, ictx, p.ty)

    scope = ctx.counts
    if not _mentions_ival0(head):
        # Constant line: the problem is homogeneous.
        dropped = subst_ival1(scope, head, IZERO)
        return HComp(dropped, p.face, p.tube, p.base)

    match head:
        case Pi(dom, cod):
            # \v. comp^i cod[w(i)/x] [face -> tube (w i)] (base (w 0))
            v_scope = shape(scope, T1)
            dom_v = weaken(dom, T1)                 # (ctx, v, i)
            line_i = weaken(dom, (1, 0, 0, 1), I1)
            w_i = _fill_bwd(shape(v_scope, I1), line_i,
                            weaken_iv(p.face, I1),
                            Var(0), IVar(0))
            cod_line = subst_apply(
                subst(v_scope, terms=(w_i,), ivals=(IVar(0),),
                      fresh=I1),
                weaken(cod, T1, T1),
            )
            tube_v = App(weaken(p.tube, T1), w_i)
            w_0 = _fill_bwd(v_scope, dom_v, p.face, Var(0), IZERO)
            base_v = App(weaken(p.base, T1), w_0)
            return Lam(Comp(cod_line, p.face, tube_v, base_v))

        case Sigma(fst, snd):
            c1 = _fill_fwd(
                ictx.counts,
                weaken(fst, I1, I1),
                weaken_iv(p.face, I1),
                Fst(weaken(p.tube, I1, I1)),
                Fst(weaken(p.base, I1)),
                IVar(0),
            )
            first = Comp(fst, p.face, Fst(p.tube), Fst(p.base))
            snd_line = subst_apply(
                subst(scope, terms=(c1,), ivals=(IVar(0),), fresh=I1),
                snd,
            )
            second = Comp(snd_line, p.face, Snd(p.tube), Snd(p.base))
            return Pair(first, second)

        case PathT(a, left, right):
            # <k> comp^i a [face -> tube@k, k=0 -> a0, k=1 -> a1] (base@k)
            ln = weaken(a, I1, I1)       # (ctx, k, i)
            phi2 = weaken_iv(p.face, (0, 0, 0, 2))
            sys = System((
                (phi2, PApp(weaken(p.tube, I1, I1), IVar(1))),
                (FEq(1, 0), weaken(left, I1, I1)),
                (FEq(1, 1), weaken(right, I1, I1)),
            ))
            base = PApp(weaken(p.base, I1), IVar(0))
            total = FOr(weaken_iv(p.face, I1),
                        FOr(FEq(0, 0), FEq(0, 1)))
            return PLam(Comp(ln, total, sys, base))

        # Under the later's tick or the quantified clock, the type line
        # keeps its indices: the tick (or clock) and the line variable are
        # of different sorts, so their order does not matter.
        case Later(clock, body_ty):
            tube = TickApp(weaken(p.tube, K1), TickVar(0))
            base = TickApp(weaken(p.base, K1), TickVar(0))
            return TickLam(clock, Comp(body_ty, p.face, tube, base))

        case Forall(body_ty):
            tube = CApp(weaken(p.tube, C1), 0)
            base = CApp(weaken(p.base, C1), 0)
            return CLam(Comp(body_ty, p.face, tube, base))

        case Hit(_, _):
            return hit_comp_decompose(scope, head, p.face, p.tube, p.base)

        case _:
            return None


def _mentions_ival0(t):
    """Whether interval variable 0 is free in t: whether strengthening t
    past it fails."""
    try:
        strengthen(t, IVAL)
    except TickEscape:
        return True
    return False


# --------------------------------------------------------------------------
# comp / trans / hcomp at higher inductive types
# --------------------------------------------------------------------------

def hit_comp_decompose(scope, hit_line, face, tube, base):
    """comp at H(delta(i)) = hcomp at H(delta(1)) of the transported sides
    over the transported base."""
    line_at_one = subst_ival1(scope, hit_line, IONE)
    # v, scoped in (ctx, j): trans^k H(delta[j \/ k]) (face \/ j=1) (tube j)
    vk_line = subst_apply(
        subst(scope, ivals=(IJoin(IVar(1), IVar(0)),), fresh=(0, 0, 0, 2)),
        hit_line,
    )
    v = Trans(vk_line, FOr(weaken_iv(face, I1), FEq(0, 1)), tube)
    return HComp(line_at_one, face, v, Trans(hit_line, face, base))


def _trans_step(state, ctx, ty, face, base):
    if face_is_true(face):
        return base
    if not _mentions_ival0(ty):
        # Constant line: transport is the identity.
        return base
    ictx = ctx.push(EIVar())
    head = whnf(state, ictx, ty)
    if not _mentions_ival0(head):
        return base
    match head:
        case Pi(_, _) | Sigma(_, _) | PathT(_, _, _) | Later(_, _) \
                | Forall(_):
            return Comp(head, face, weaken(base, I1), base)
        case Hit(_, _):
            b = whnf(state, ctx, base)
            if isinstance(b, Con):
                return _trans_con(state, ctx.counts, head, face, b)
            if isinstance(b, HComp):
                return _trans_hcomp(ctx.counts, head, face, b)
            return None
        case _:
            return None


def _trans_con(state, scope, hit_line, face, con):
    """Push transport inside a point constructor.  Path constructors and
    constructors with higher-order recursive arguments stay stuck along
    genuinely varying parameter lines."""
    sig = state.signature(con.name)
    ctor = sig.constructor(con.label)
    if ctor.boundary or any(len(a.types) for a in ctor.rec_arities):
        return None
    params_line = hit_line.params  # scoped (ctx, i)
    new_args = _ctrans_args(scope, ctor, params_line, face, con.args)
    new_recs = tuple(Trans(hit_line, face, r) for r in con.recs)
    params_at_one = tuple(subst_ival1(scope, q, IONE) for q in params_line)
    return Con(con.name, con.label, params_at_one, tuple(new_args),
               new_recs, con.ivals)


def _ctrans_args(scope, ctor, params_line, face, args):
    """Transport the non-recursive arguments along their telescope lines,
    filling earlier arguments to instantiate the dependencies of later
    ones."""
    iscope = shape(scope, I1)
    fills = []    # scoped (ctx, j): the m-th argument's filler at level j
    results = []
    for m, ty in enumerate(ctor.args.types):
        # ty is scoped (Delta, args<m).
        line = subst_apply(
            subst(iscope, terms=params_line + tuple(fills[:m])), ty
        )
        fills.append(_fill_fwd(
            iscope,
            weaken(line, I1, I1),
            weaken_iv(face, I1),
            weaken(args[m], (0, 0, 0, 2)),
            weaken(args[m], I1),
            IVar(0),
        ))
        results.append(Trans(line, face, args[m]))
    return results


def _trans_hcomp(scope, hit_line, face, hc):
    """trans commutes with hcomp."""
    at_one = subst_ival1(scope, hit_line, IONE)
    tube = Trans(weaken(hit_line, I1, I1), weaken_iv(face, I1), hc.tube)
    return HComp(at_one, hc.face, tube, Trans(hit_line, face, hc.base))


# --------------------------------------------------------------------------
# Constructor boundaries
# --------------------------------------------------------------------------

def _ival_assignment(ivals):
    # Interval arguments are stored in declaration order; index 0 of the
    # constructor's face is the innermost, i.e. the last argument.
    return {k: r for k, r in enumerate(reversed(ivals))}


def _ctor_face(ctor, ivals):
    return iv_substitute(ctor.face, _ival_assignment(ivals))


def _boundary_fire(scope, ctor, env, params, args, recs, ivals):
    """The constructor's face is satisfied: reduce to the boundary piece
    that holds, under the environment sending the signature telescope to
    the constructor's parameters and arguments (each closed over env, the
    constructor's own) and to its interval arguments (already read under
    env)."""
    assignment = _ival_assignment(ivals)
    for phi, piece in ctor.boundary:
        if face_is_true(iv_substitute(phi, assignment)):
            terms = tuple(close(env, x) for x in params + args + recs)
            return piece, subst(scope, terms=terms, ivals=ivals)
    raise IllFormedRedex(
        f"constructor face of {ctor.label} satisfied but no boundary piece "
        "fires"
    )


# --------------------------------------------------------------------------
# Induction under clocks: reduction
# --------------------------------------------------------------------------

def elim_reduce(state, ctx, elim, env=None):
    """Reduce an eliminator, under env, whose scrutinee is a
    clock-abstracted constructor or hcomp, to a term and the environment
    pending on it (None when there is none); None when neutral.  The
    eliminator stays under env: its clocks are peeled under env lifted
    past each (`_peel`), and the chosen case continues under env, extended
    for its binders."""
    if elim.n:
        head, henv, cctx = _peel(state, ctx, elim, env)
    else:
        head, henv = _whnf_env(state, ctx, elim.arg, env)
        cctx = ctx
    if type(head) is Con:
        return _elim_con(state, ctx, elim, env, head, henv)
    if type(head) is HComp:
        return _elim_hcomp(state, ctx, cctx, elim, env, head, henv)
    return None


def _peel(state, ctx, elim, env):
    """The weak-head form of elim's scrutinee under its clocks, with its
    environment, and the context under them.  A constructor is
    materialised, since the case takes its arguments abstracted over the
    clocks."""
    cur, cctx = elim.arg, ctx
    for _ in range(elim.n):
        cur, env = _whnf_env(state, cctx, cur, env)
        if type(cur) is not CLam:
            return None, None, cctx
        cctx = cctx.push(EClock())
        cur, env = cur.body, lift(env, CLOCK)
    head, env = _whnf_env(state, cctx, cur, env)
    if type(head) is Con:
        head, env = _materialise(head, env), None
    return head, env, cctx


def _clam_n(n, t):
    for _ in range(n):
        t = CLam(t)
    return t


def _nlam(n, t):
    for _ in range(n):
        t = Lam(t)
    return t


def _forall_n(n, t):
    for _ in range(n):
        t = Forall(t)
    return t


def _case_for(elim, label):
    for case in elim.cases:
        if case.label == label:
            return case
    raise CaseMissing(f"no case for constructor {label}")


def _weaken_case(case, by):
    return case.with_body(weaken(case.body, by, case.binders))


def _weaken_elim(elim, by, arg):
    """elim, its parameters, motive and cases weakened past `by` binders,
    on the scrutinee arg (scoped past them already)."""
    return ClockElim(elim.name, elim.n,
                     tuple(weaken(p, by) for p in elim.params),
                     weaken(elim.motive, by, T1),
                     tuple(_weaken_case(c, by) for c in elim.cases),
                     arg)


@lru_cache(maxsize=None)
def _slot(ix):
    """The scrutinee variable of the recursive calls `_rec_call` makes, one
    object per index, so that a recursive call is known by its scrutinee."""
    return Var(ix)


def _fields_bound(elim):
    """One more than the largest term variable elim's parameters, motive
    and cases mention."""
    return max(0, loose_bound(elim.motive)[0] - 1,
               *(loose_bound(p)[0] for p in elim.params),
               *(loose_bound(c.body)[0] - c.binders[0] for c in elim.cases))


def _rec_call(elim, env, scope, x, m):
    """The recursive call of elim, under env, on x, a recursive argument of
    arity m (clock-abstracted when elim has clocks), scoped in a context of
    shape `scope`: \\xi-bar. elim(/\\kappa-bar. x xi-bar).  With no
    arity, it is elim's own fields on a term variable past all they
    mention, bound to x (`bind_at`), so nothing is weakened and the
    environment keeps its size however deep the recursion goes.  With one,
    the fields are weakened past x and the variables the call binds."""
    if not m:
        arg = elim.arg
        if not (type(arg) is Var and _slot(arg.ix) is arg):
            # Not a recursive call made here already, which is its own.
            arg = _slot(_fields_bound(elim))
            elim = ClockElim(elim.name, elim.n, elim.params, elim.motive,
                             elim.cases, arg)
        return Closure(elim, bind_at(env, scope, arg.ix, x))
    if elim.n:
        raise IllFormedRedex("induction under clocks over a recursive "
                             "argument of function type")
    call = Var(m)
    for j in range(m):
        call = App(call, Var(m - 1 - j))
    return Closure(_nlam(m, _weaken_elim(elim, (1 + m, 0, 0, 0), call)),
                   bind(env, scope, TERM, x))


def _elim_con(state, ctx, elim, env, con, cenv):
    """Constructor rule: the matching case, in env (the eliminator's)
    extended to send its binders to the clock-abstracted arguments, the
    recursive calls and the interval arguments.  con is the constructor
    under cenv; with clocks to abstract over, cenv is None."""
    n = elim.n
    ctor = state.signature(elim.name).constructor(con.label)
    case = _case_for(elim, con.label)
    if n:
        gamma = [_clam_n(n, a) for a in con.args]
        xs = [_clam_n(n, a) for a in con.recs]
    else:
        gamma = [close(cenv, a) for a in con.args]
        xs = [close(cenv, a) for a in con.recs]
    scope = ctx.counts
    ys = [_rec_call(elim, env, scope, x, len(arity.types))
          for x, arity in zip(xs, ctor.rec_arities)]
    return case.body, extend(env, scope, gamma + xs + ys,
                             _ivals_under(cenv, con.ivals))


def _elim_hcomp(state, ctx, cctx, elim, env, hc, henv):
    """hcomp rule, when the hcomp's type is a data type: eliminate through
    the composition by composing in the motive over the filling line."""
    hc = _materialise(hc, henv)
    if not isinstance(whnf(state, cctx, hc.ty), Hit):
        return None
    elim = _materialise(elim, env)
    n = elim.n
    scope = ctx.counts
    # The hcomp's fields live under the n peeled clock binders, but its
    # face is clock-free and the others get re-abstracted, so the per-sort
    # indices line up without renumbering.
    big_ty = _forall_n(n, hc.ty)
    tube_abs = _clam_n(n, hc.tube)     # scoped (ctx, i)
    base_abs = _clam_n(n, hc.base)
    v_line = hfill(shape(scope, I1),
                   weaken(big_ty, I1),
                   weaken_iv(hc.face, I1),
                   weaken(tube_abs, I1, I1),
                   weaken(base_abs, I1),
                   IVar(0))
    motive_line = subst_apply(
        subst(scope, terms=(v_line,), fresh=I1), elim.motive
    )
    tube = _weaken_elim(elim, I1, tube_abs)
    base = ClockElim(elim.name, n, elim.params, elim.motive, elim.cases,
                     base_abs)
    return Comp(motive_line, hc.face, tube, base), None


# --------------------------------------------------------------------------
# Conversion
# --------------------------------------------------------------------------

def conv(state, ctx, ty, t, u):
    """Whether t and u are equal at ty in ctx, under its restriction: at
    once when the restriction is false or the terms are equal
    (`closure_equal`, since each of ty, t and u may be a term or a
    closure); otherwise on each clause of the restriction, with the
    clause's endpoints pending on ty, t and u, materialised, as their
    environment.  Each clause makes the restriction true, so the clause is
    compared unrestricted."""
    phi = ctx.restriction
    if face_is_false(phi) or closure_equal(t, u):
        return True
    if face_is_true(phi):
        return _conv_clause(state, ctx, ty, t, u)
    free = Context(ctx.entries, FTOP, ctx.counts)
    ty, t, u = force(ty), force(t), force(u)
    for clause in face_clauses(phi):
        sigma = clause_subst(ctx.counts, clause)
        if not _conv_clause(state, free, Closure(ty, sigma),
                            Closure(t, sigma), Closure(u, sigma)):
            return False
    return True


def _conv_clause(state, ctx, ty, t, u):
    """Type-directed comparison of t and u (terms or closures) at ty (a
    term or a closure): the type's eta rule, then `conv_tm`.  Eta compares
    both sides applied to the bound variable, or projected, each pending
    (`_eta`, `_project`)."""
    match whnf(state, ctx, ty):
        case Pi(dom, cod):
            return _conv_clause(state, ctx.push(EVar(dom)), cod,
                                _eta(t, T1), _eta(u, T1))
        case Sigma(fst, snd):
            if not _conv_clause(state, ctx, fst, _project(_FST, t),
                                _project(_FST, u)):
                return False
            snd = Closure(snd, bind(None, ctx.counts, TERM,
                                    _project(_FST, t)))
            return _conv_clause(state, ctx, snd, _project(_SND, t),
                                _project(_SND, u))
        case PathT(a, _, _):
            return _conv_clause(state, ctx.push(EIVar()),
                                Closure(a, _shift_subst(I1, ZERO)),
                                _eta(t, I1), _eta(u, I1))
        case Forall(body):
            return _conv_clause(state, ctx.push(EClock()), body,
                                _eta(t, C1), _eta(u, C1))
        case Later(clock, body):
            return _conv_clause(state, ctx.push(ETick(clock)), body,
                                _eta(t, K1), _eta(u, K1))
    return conv_tm(state, ctx, t, u)


# A side applied to the variable of one more binder (`_eta`), and a pair's
# projections (`_project`): term variable 0 stands for the side.
_ETA = {T1: App(Var(0), Var(1)), I1: PApp(Var(0), IVar(0)),
        C1: CApp(Var(0), 0), K1: TickApp(Var(0), TickVar(0))}
_FST, _SND = Fst(Var(0)), Snd(Var(0))


def _project(proj, x):
    """proj of x, a term or a closure: pending."""
    return Closure(proj, Substitution(None, ((x,), (), (), ())))


def _eta(x, by):
    """x, a term or a closure, moved past one binder (`by`, a count) and
    applied to its variable: pending, the shift composed into x's
    environment (`then`)."""
    shift = _shift_subst(by, ZERO)
    x = Closure(x.term, then(x.env, shift)) if type(x) is Closure \
        else Closure(x, shift)
    terms = (x, Var(0)) if by is T1 else (x,)
    return Closure(_ETA[by], Substitution(None, (terms, (), (), ())))


# The type of a term variable bound where untyped comparison has no type to
# give.
_DUMMY = U(0)

# Per sort, the context entry of a binder of it where the comparison has no
# type to give (a tick's is on its abstraction's clock: none here).
_ENTRY = {TERM: EVar(_DUMMY), CLOCK: EClock(), TICK: None, IVAL: EIVar()}


def _abstraction(cls):
    """The count and the sort of the binder of the abstraction class cls,
    as its body's entry in `syntax._WALKED` gives them, and its entry."""
    by = _WALKED[cls][-1][1]
    sort = _SORTS[by.index(1)]
    return by, sort, _ENTRY[sort]


# Per abstraction, in the order `_opened` tries them.
_ABSTRACTIONS = {cls: _abstraction(cls) for cls in (Lam, PLam, CLam, TickLam)}


def conv_tm(state, ctx, t, u):
    """Untyped comparison of weak-head forms with eta-matching; t and u are
    terms or closures.  Two constructors are compared under their
    environments, argument by argument; an abstraction's body under its
    environment lifted past the binder, against the other side applied to
    the bound variable (`_opened`); pairs by their projections; two stuck
    applications function against function and argument against argument,
    as closures; any other two heads materialised, part by part
    (`_conv_rigid`).  The recursion keeps few locals: its depth is the
    input's, and so is the Python stack's."""
    t, te = _whnf_env(state, ctx, t)
    u, ue = _whnf_env(state, ctx, u)
    tc, uc = type(t), type(u)
    if tc is Con and uc is Con:
        return _conv_con(state, ctx, t, te, u, ue)
    if tc in _ABSTRACTIONS or uc in _ABSTRACTIONS:
        ctx, t, u = _opened(ctx, t, te, u, ue)
        return ctx is not None and conv_tm(state, ctx, t, u)
    if tc is Pair or uc is Pair:
        t, u = close(te, t), close(ue, u)
        return (conv_tm(state, ctx, _project(_FST, t), _project(_FST, u))
                and conv_tm(state, ctx, _project(_SND, t), _project(_SND, u)))
    if tc is not uc:
        return False
    if tc is App:
        return (conv_tm(state, ctx, close(te, t.fn), close(ue, u.fn))
                and conv_tm(state, ctx, close(te, t.arg), close(ue, u.arg)))
    if tc is CApp:
        return (lookup_clock(te, t.clock) == lookup_clock(ue, u.clock)
                and conv_tm(state, ctx, close(te, t.fn), close(ue, u.fn)))
    return _conv_rigid(state, ctx, _materialise(t, te), _materialise(u, ue))


def _opened(ctx, t, te, u, ue):
    """The context one binder in and the two sides under it, for the
    first abstraction kind (in `_ABSTRACTIONS` order) either side is: an
    abstraction's body under its environment lifted past the binder, and a
    side of another kind applied to the bound variable (eta).  Two tick
    abstractions on different clocks differ: then all three are None."""
    cls = next(c for c in _ABSTRACTIONS if type(t) is c or type(u) is c)
    by, sort, entry = _ABSTRACTIONS[cls]
    if entry is None:
        x, xe = (t, te) if type(t) is cls else (u, ue)
        k = lookup_clock(xe, x.clock)
        if type(t) is type(u) and lookup_clock(ue, u.clock) != k:
            return None, None, None
        entry = ETick(k)
    ctx, sides = ctx.push(entry), []
    for x, env in ((t, te), (u, ue)):
        if type(x) is not cls:
            sides.append(_eta(close(env, x), by))
        elif env is None:
            sides.append(x.body)
        else:
            sides.append(Closure(x.body, lift(env, sort)))
    return ctx, *sides


def _conv_rigid(state, ctx, t, u):
    """Two materialised weak-head forms of the same class that are no
    constructors, abstractions, pairs or applications, part by part."""
    match (t, u):
        case (Var(i1), Var(i2)):
            return i1 == i2
        case (U(n1), U(n2)):
            return n1 == n2
        case (TopRef(n1), TopRef(n2)):
            return n1 == n2
        case (Pi(d1, c1), Pi(d2, c2)) | (Sigma(d1, c1), Sigma(d2, c2)):
            return (conv_tm(state, ctx, d1, d2)
                    and conv_tm(state, ctx.push(EVar(d1)), c1, c2))
        case (PathT(a1, l1, r1), PathT(a2, l2, r2)):
            return (conv_tm(state, ctx, a1, a2)
                    and conv_tm(state, ctx, l1, l2)
                    and conv_tm(state, ctx, r1, r2))
        case (Forall(b1), Forall(b2)):
            return conv_tm(state, ctx.push(EClock()), b1, b2)
        case (Later(k1, b1), Later(k2, b2)):
            return k1 == k2 and conv_tm(state, ctx.push(ETick(k1)), b1, b2)
        case (Fst(p1), Fst(p2)) | (Snd(p1), Snd(p2)):
            return conv_tm(state, ctx, p1, p2)
        case (PApp(f1, r1), PApp(f2, r2)):
            return conv_tm(state, ctx, f1, f2) and r1 == r2
        case (TickApp(f1, u1), TickApp(f2, u2)):
            return conv_tm(state, ctx, f1, f2) and tick_conv(u1, u2)
        case (ForceApp(f1, k1, u1), ForceApp(f2, k2, u2)):
            return (k1 == k2 and tick_conv(u1, u2)
                    and conv_tm(state, ctx.push(EClock()), f1, f2))
        case (DFix(k1, f1), DFix(k2, f2)) | (PFix(k1, f1), PFix(k2, f2)):
            return k1 == k2 and conv_tm(state, ctx, f1, f2)
        case (Hit(n1, p1), Hit(n2, p2)):
            return n1 == n2 and len(p1) == len(p2) and all(
                conv_tm(state, ctx, a, b) for a, b in zip(p1, p2)
            )
        case (Comp(ty1, f1, tu1, b1), Comp(ty2, f2, tu2, b2)):
            return _conv_comp(state, ctx, (ty1, f1, tu1, b1),
                              (ty2, f2, tu2, b2), hom=False)
        case (HComp(ty1, f1, tu1, b1), HComp(ty2, f2, tu2, b2)):
            return _conv_comp(state, ctx, (ty1, f1, tu1, b1),
                              (ty2, f2, tu2, b2), hom=True)
        case (Trans(ty1, f1, b1), Trans(ty2, f2, b2)):
            return (f1 == f2
                    and conv_tm(state, ctx.push(EIVar()), ty1, ty2)
                    and conv_tm(state, ctx, b1, b2))
        case (System(p1), System(p2)):
            return (_system_covers(state, ctx, p1, p2)
                    and _system_covers(state, ctx, p2, p1))
        case (ClockElim(n1, k1, q1, m1, c1, a1),
              ClockElim(n2, k2, q2, m2, c2, a2)):
            if n1 != n2 or k1 != k2 or len(c1) != len(c2):
                return False
            if not conv_tm(state, ctx, a1, a2):
                return False
            if len(q1) != len(q2) or not all(
                conv_tm(state, ctx, x, y) for x, y in zip(q1, q2)
            ):
                return False
            if not conv_tm(state, ctx.push(EVar(_DUMMY)), m1, m2):
                return False
            for x, y in zip(c1, c2):
                if (x.label, x.n_args, x.n_recs, x.n_ivars) != \
                        (y.label, y.n_args, y.n_recs, y.n_ivars):
                    return False
                inner = ctx
                for _ in range(x.binders[0]):
                    inner = inner.push(EVar(_DUMMY))
                for _ in range(x.binders[3]):
                    inner = inner.push(EIVar())
                if not conv_tm(state, inner, x.body, y.body):
                    return False
            return True
    return False


def _conv_con(state, ctx, t, te, u, ue):
    """Constructors t under te and u under ue: the arguments and recursive
    arguments are compared pairwise as closures, the interval arguments as
    read under the environments."""
    if (t.name != u.name or t.label != u.label
            or len(t.args) != len(u.args) or len(t.recs) != len(u.recs)
            or len(t.ivals) != len(u.ivals)):
        return False
    for x, y in zip(t.args + t.recs, u.args + u.recs):
        if not conv_tm(state, ctx, close(te, x), close(ue, y)):
            return False
    return _ivals_under(te, t.ivals) == _ivals_under(ue, u.ivals)


def _ivals_under(env, ivals):
    """A constructor's interval arguments, read under env."""
    return ivals if env is None else tuple(image_iv(env, r) for r in ivals)


def _conv_comp(state, ctx, a, b, hom):
    ty1, f1, tu1, b1 = a
    ty2, f2, tu2, b2 = b
    if f1 != f2:
        return False
    ty_ctx = ctx if hom else ctx.push(EIVar())
    if not conv_tm(state, ty_ctx, ty1, ty2):
        return False
    if not conv_tm(state, ctx, b1, b2):
        return False
    inner = ctx.push(EIVar()).restrict(weaken_iv(f1, I1))
    return conv(state, inner, U(0), tu1, tu2)


def _system_covers(state, ctx, p1, p2):
    for phi, v in p1:
        for clause in face_split(phi):
            if not any(
                face_entails(clause, psi)
                and conv(state, ctx.restrict(clause), U(0), v, w)
                for psi, w in p2
            ):
                return False
    return True


def tick_conv(u, v):
    u, v = tick_whnf(u), tick_whnf(v)
    match (u, v):
        case (TickVar(i1), TickVar(i2)):
            return i1 == i2
        case (Diamond(), Diamond()):
            return True
        case (Tirr(l1, r1, a1), Tirr(l2, r2, a2)):
            return (tick_conv(l1, l2) and tick_conv(r1, r2)
                    and a1 == a2)
    return False
