"""Definitional equality.

Weak-head normalization implements the judgemental equalities: beta for
functions, pairs, clocks, ticks and paths; the forcing-tick beta rule; the
diamond-gated unfolding of dfix and pfix; tirr endpoint rules and the
diamond collapse; demotion of diamond-free forcing applications; the
composition rules per type head (with comp at a higher inductive type
decomposed into hcomp over trans); a constructor whose face holds reducing
to its boundary piece; and the reduction rules of the induction-under-clocks
eliminator.

Fixed points unfold ONLY at a syntactic diamond; together with the step
budget this keeps conversion checking terminating in practice (no
normalization theorem is available for the theory).

Conversion asks syntactic equality first (`syntax.closure_equal`, which is
`structural_equal` on the terms closures stand for, read without building
them; as the quick check of Lean 4's `is_def_eq` does): most comparisons
the checker makes are between terms that are already equal, and they are
answered without reducing anything or spending a step.  `conv` asks on
entry; `conv_tm`, which compares weak-head forms part by part, does not,
since there the test would cost more than it saves.

`whnf` is a Krivine-style environment machine (Krivine, "A call-by-name
lambda-calculus machine", 2007) behind a term-in, term-out interface.  Its
state is a term, the substitution pending on it (an environment, a
`syntax.Substitution` whose term entries may be closures) and a stack of
arguments; it starts from a term or from a closure (`syntax.Closure`, a
term and its environment), which it unpacks without a step.  An
application pushes its argument, closed over the environment, and walks
into its function, so a spine is walked in one loop; a lambda takes the top
argument and a clock lambda the top clock into the environment, without
touching the body; a variable bound to a closure continues in the
closure's term and environment; unfolding a definition starts from an
empty environment.

The other heads take their rules under the environment as well, reading
only their small parts under it (a clock, a tick, an interval expression,
a face).  A path application, a tick application and a projection reduce
their function or pair under the environment and continue in its body,
with the interval or tick argument bound, or in its component; a
diamond-free forcing application continues as a simple tick application
with its clock bound; a composition whose face holds continues in its tube
at 1, and a system in the part whose face holds; a constructor whose face
holds continues in its boundary piece, under the environment sending the
signature telescope to the constructor's arguments closed over its own;
and the clock-free eliminator's constructor rule continues in the chosen
case under the eliminator's environment extended for the case's binders,
each recursive call a closure binding its argument over one template per
eliminator term and arity (`_rec_template`).  The environment is applied
to the head itself only where a rule builds new terms from its parts or
goes under a binder of the head: a forcing application with a diamond
(its function, under the clock it binds), a composition whose face does
not hold, transport, an eliminator with clocks to peel, and a tick or
forcing application under an environment holding a forcing tick, which
substitution may turn from one into the other.

`_whnf_env` returns the head together with the environment pending on it
(none when arguments are left on the spine); `whnf` applies that
environment once, so its callers see the terms eager substitution
produced.  Conversion keeps the pair: two constructors are compared under
their environments, their arguments pairwise as closures and their
interval arguments read under them, so a tower of constructors is never
built; any other head is materialised.

A comparison under a face is a comparison in a restricted context
(`Context.restrict`): `conv` answers at once where the restriction is
false, and otherwise compares on each clause of it, with the clause's
endpoint substitution as the environment of the type and of both sides,
so only the heads reached are substituted.  A clause is compared with the
restriction set back to true, which loses nothing: the restriction is the
meet of every face restricted to, and each clause of a meet contains a
clause of each face met, so each of them holds on it.

One step is counted per application walked, lambda taken and definition
unfolded, as before; entering a variable's closure is not a step, so the
machine takes the same steps on a closure as on its materialisation.  A
term whose class is head-normal with no argument pending (a universe, type
former, abstraction, pair, `dfix` or `pfix`, or a variable with no
environment) is returned at once, with its environment, for the one step
the machine would count.

Substitutions are built with `syntax.subst` from payloads per sort (terms,
clock indices, ticks and interval expressions) and a count of fresh
binders; it checks them against the shape of the scope they map into (per
sort, the number of variables): a context's `counts`, or a shape extended
by `syntax.shape` where there is no typing context to read it from.
Weakening and strengthening are substitutions too, applied by the same
walk: whether a type line mentions its interval variable
(`_mentions_ival0`) is whether strengthening it past that variable fails.
`subst_ival1` instantiates a line at an endpoint, where a composition rule
builds a term from it; `_forcing_env` is the forcing beta rule's
environment.  The checker builds no term this way: its codomains, motives
and telescopes stay pending on it as closures, and `whnf`, `conv` and
`conv_tm` take those as they take terms.  The Σ eta rule's second
component type stays pending the same way.
A boundary piece is an ordinary term scoped in its data type's telescope
(parameters, arguments, recursive arguments, interval binders), so firing
it is one `subst`.  `_weaken_elim` moves an eliminator under binders, for
a recursive call, an hcomp's tube and the checker's eliminator cases;
`_filler` builds the extent and tube system of a filler, which `_fill_fwd`
composes along a line and `hfill` homogeneously.
"""

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
    Context, DFix, Diamond, EClock, EIVar, ETick, EVar, ElimCase, Fst,
    ForceApp, Forall, HComp, Hit, IVAL, Lam, Later, PApp, PFix, PLam, Pair,
    PathT, Pi, Sigma, Snd, System, TERM, TICK, TickApp, TickLam, TickVar,
    Tirr, TopRef, Trans, U, Var, C1, I1, T1, K1, closure_equal, shape,
    strengthen, subst, weaken, weaken_iv,
)
from .ticks import (
    bind, clause_subst, close, drop_terms, extend, force, has_forcing_tick,
    image_iv, image_tick, lookup, lookup_clock, subst_apply,
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


def _forcing_env(scope, k, u):
    """The substitution of the forcing beta rule, for a body scoped in
    scope plus a clock and a tick on it."""
    return subst(scope, clocks=(k,), ticks=(CForcedTick(0, u),))


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


def _whnf_env(state, ctx, t, env=None):
    """The machine: the weak-head normal form of t (a term or a closure)
    under env, as a head and the environment pending on it (None when there
    is none; always None when arguments were left on the spine)."""
    if type(t) is Closure:
        t, env = t.term, t.env
    cls = type(t)
    if cls in _HEAD_NORMAL and (env is None or cls is not Var):
        state.step()
        return t, env
    spine = []   # arguments, innermost last: closures and clock indices
    while True:
        # The machine's own cases run once per step: they test the type
        # directly rather than through `match`.
        cls = type(t)
        if cls is Var and env is not None:
            t, env = lookup(env, t.ix)  # not a step
            continue
        state.step()
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
                return _apply_spine(t, spine), None
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
                        t = endpoint
                        continue
                return _apply_spine(PApp(fn, r), spine), None

            case TickApp(fn, u):
                u = tick_whnf(image_tick(env, u))
                fn, fenv = _whnf_env(state, ctx, fn, env)
                if type(fn) is TickLam:
                    t, env = fn.body, bind(fenv, ctx.counts, TICK, u)
                else:
                    return _apply_spine(
                        TickApp(_materialise(fn, fenv), u), spine), None

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
                # fn binds the clock: it is reduced with env applied.
                if env is not None:
                    fn, env = subst_apply(env.under(C1), fn), None
                fn = whnf(state, ctx.push(EClock()), fn)
                match fn:
                    case TickLam(_, body):
                        t, env = body, _forcing_env(ctx.counts, k, u)
                    case DFix(0, f) if isinstance(u, Diamond):
                        t, env = App(f, DFix(0, f)), bind(
                            None, ctx.counts, CLOCK, k)
                    case _:
                        return _apply_spine(ForceApp(fn, k, u), spine), None

            case Fst(p):
                p, penv = _whnf_env(state, ctx, p, env)
                if type(p) is Pair:
                    t, env = p.fst, penv
                else:
                    return _apply_spine(Fst(_materialise(p, penv)),
                                        spine), None

            case Snd(p):
                p, penv = _whnf_env(state, ctx, p, env)
                if type(p) is Pair:
                    t, env = p.snd, penv
                else:
                    return _apply_spine(Snd(_materialise(p, penv)),
                                        spine), None

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
                    return _apply_spine(t, spine), None
                t, env = reduced, None

            case HComp():
                t = _materialise(t, env)
                head = whnf(state, ctx, t.ty)
                if isinstance(head, (Hit, U)) or is_neutral(head):
                    return _apply_spine(HComp(head, t.face, t.tube, t.base),
                                        spine), None
                # Other type heads: compose along the constant line.
                t, env = Comp(weaken(head, I1), t.face, t.tube,
                              t.base), None

            case Trans(ty, face, base):
                reduced = _trans_step(state, ctx, ty, face, base)
                if reduced is None:
                    return _apply_spine(t, spine), None
                t = reduced

            case _:
                return _stuck(t, env, spine)


def _materialise(head, env):
    """head with env applied."""
    return head if env is None else subst_apply(env, head)


def _stuck(head, env, spine):
    """The machine's answer for a head no rule applies to: it stays under
    its environment when no argument is pending."""
    if not spine:
        return head, env
    return _apply_spine(_materialise(head, env), spine), None


def _apply_spine(head, spine):
    """head applied to the pending arguments, each one materialised."""
    for arg in reversed(spine):
        head = CApp(head, arg) if type(arg) is int else App(head, force(arg))
    return head


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
    try:
        ty = whnf(state, ctx, state.infer(ctx, fn))
    except FuelExhausted:
        raise
    except CcttError:
        return None
    if isinstance(ty, PathT):
        return ty.right if right else ty.left
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
    pending on it (None when there is none); None when neutral.

    Without clocks to peel, the scrutinee is reduced under env and the
    chosen case continues under env, extended for its binders: the
    eliminator is never materialised.  With clocks, the scrutinee is
    reduced under them, so env is applied to the eliminator first."""
    n = elim.n
    if n and env is not None:
        elim, env = subst_apply(env, elim), None
    cur, cctx = elim.arg, ctx
    for _ in range(n):
        cur = whnf(state, cctx, cur)
        if not isinstance(cur, CLam):
            return None
        cctx = cctx.push(EClock())
        cur = cur.body
    head, henv = _whnf_env(state, cctx, cur, env)
    if type(head) is Con:
        if n:
            head, henv = _materialise(head, henv), None
        return _elim_con(state, ctx, elim, env, head, henv)
    if type(head) is HComp:
        head = _materialise(head, henv)
        if isinstance(whnf(state, cctx, head.ty), Hit):
            return _elim_hcomp(ctx.counts, _materialise(elim, env), head)
    return None


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
    cut = (case.n_args + 2 * case.n_recs, 0, 0, case.n_ivars)
    return ElimCase(case.label, case.n_args, case.n_recs, case.n_ivars,
                    weaken(case.body, by, cut))


def _weaken_elim(elim, by, arg):
    """elim, its parameters, motive and cases weakened past `by` binders,
    on the scrutinee arg (scoped past them already)."""
    return ClockElim(elim.name, elim.n,
                     tuple(weaken(p, by) for p in elim.params),
                     weaken(elim.motive, by, T1),
                     tuple(_weaken_case(c, by) for c in elim.cases),
                     arg)


def _rec_call(elim, x, extra, m):
    """The recursive call of elim on a recursive argument x of arity m, the
    y of its case: \\xi-bar. elim(/\\kappa-bar. x xi-bar), elim weakened
    past the `extra` term variables x's scope adds to elim's and the m
    bound ones.  x is scoped under elim's clocks."""
    call = weaken(x, (m, 0, 0, 0))
    for j in range(m):
        call = App(call, Var(m - 1 - j))
    return _nlam(m, _weaken_elim(elim, (extra + m, 0, 0, 0),
                                 _clam_n(elim.n, call)))


def _rec_template(elim, m):
    """The recursive call of the clock-free eliminator elim on an argument
    x of arity m, bound innermost (`_rec_call`), made once per eliminator
    term and arity.  The eliminator in it is marked as made from elim past
    x and its m variables, and reducing it continues in elim's cases
    (`_elim_con`), so no template is made from a template: an eliminator
    keeps one per arity however deep the recursion goes."""
    calls = getattr(elim, "_calls", None)
    if calls is None:
        calls = {}
        object.__setattr__(elim, "_calls", calls)
    call = calls.get(m)
    if call is None:
        call = calls[m] = _rec_call(elim, Var(0), 1, m)
        made = call
        for _ in range(m):
            made = made.body
        object.__setattr__(made, "_made_from", (elim, 1 + m))
    return call


def _elim_con(state, ctx, elim, env, con, cenv):
    """Constructor rule: the matching case, in env (the eliminator's)
    extended to send its binders to the clock-abstracted arguments, the
    recursively eliminated calls and the interval arguments.  con is the
    constructor under cenv; with clocks to abstract over, neither has an
    environment pending."""
    n = elim.n
    if not n:
        made_from = getattr(elim, "_made_from", None)
        if made_from is not None:
            # A recursive call: its fields are those of the eliminator it
            # was made from, weakened past the variables it binds.
            elim, k = made_from
            env = drop_terms(env, ctx.counts, k)
    sig = state.signature(elim.name)
    ctor = sig.constructor(con.label)
    case = _case_for(elim, con.label)

    if not n:
        # Each recursive call is a closure binding its argument, so the
        # argument stays pending.
        xs = [close(cenv, a) for a in con.recs]
        scope = ctx.counts
        ys = [Closure(_rec_template(elim, len(arity.types)),
                      bind(env, scope, TERM, x))
              for x, arity in zip(xs, ctor.rec_arities)]
        gamma = [close(cenv, a) for a in con.args]
        return case.body, extend(env, scope, gamma + xs + ys,
                                 _ivals_under(cenv, con.ivals))

    gamma = [_clam_n(n, a) for a in con.args]
    xs = [_clam_n(n, a) for a in con.recs]
    ys = [_rec_call(elim, x, 0, len(arity.types))
          for x, arity in zip(con.recs, ctor.rec_arities)]
    return case.body, subst(ctx.counts, terms=gamma + xs + ys,
                            ivals=con.ivals)


def _elim_hcomp(scope, elim, hc):
    """hcomp rule: eliminate through the composition by composing in the
    motive over the filling line."""
    n = elim.n
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
    free = Context(ctx.entries, FTOP, ctx.counts, ctx._terms)
    ty, t, u = force(ty), force(t), force(u)
    for clause in face_clauses(phi):
        sigma = clause_subst(ctx.counts, clause)
        if not _conv_clause(state, free, Closure(ty, sigma),
                            Closure(t, sigma), Closure(u, sigma)):
            return False
    return True


def _conv_clause(state, ctx, ty, t, u):
    """Type-directed comparison of t and u (terms or closures) at ty (a
    term or a closure): the type's eta rule, then `conv_tm`."""
    head = whnf(state, ctx, ty)
    if not isinstance(head, (Pi, Sigma, PathT, Forall, Later)):
        return conv_tm(state, ctx, t, u)
    # The eta rule builds terms over t and u.
    t, u = force(t), force(u)
    match head:
        case Pi(dom, cod):
            inner = ctx.push(EVar(dom))
            return _conv_clause(
                state, inner, cod,
                App(weaken(t, T1), Var(0)),
                App(weaken(u, T1), Var(0)),
            )
        case Sigma(fst, snd):
            if not _conv_clause(state, ctx, fst, Fst(t), Fst(u)):
                return False
            snd = Closure(snd, bind(None, ctx.counts, TERM, Fst(t)))
            return _conv_clause(state, ctx, snd, Snd(t), Snd(u))
        case PathT(a, _, _):
            inner = ctx.push(EIVar())
            return _conv_clause(
                state, inner, weaken(a, I1),
                PApp(weaken(t, I1), IVar(0)),
                PApp(weaken(u, I1), IVar(0)),
            )
        case Forall(body):
            inner = ctx.push(EClock())
            return _conv_clause(
                state, inner, body,
                CApp(weaken(t, C1), 0),
                CApp(weaken(u, C1), 0),
            )
        case Later(clock, body):
            inner = ctx.push(ETick(clock))
            return _conv_clause(
                state, inner, body,
                TickApp(weaken(t, K1), TickVar(0)),
                TickApp(weaken(u, K1), TickVar(0)),
            )


# The type of a term variable bound where untyped comparison has no type to
# give.
_DUMMY = U(0)


def conv_tm(state, ctx, t, u):
    """Untyped comparison of weak-head forms with eta-matching; t and u are
    terms or closures.  Two constructors are compared under their
    environments, argument by argument; any other head is materialised."""
    t, te = _whnf_env(state, ctx, t)
    u, ue = _whnf_env(state, ctx, u)
    if type(t) is Con and type(u) is Con:
        return _conv_con(state, ctx, t, te, u, ue)
    t, u = _materialise(t, te), _materialise(u, ue)

    if isinstance(t, Lam) or isinstance(u, Lam):
        inner = ctx.push(EVar(_DUMMY))
        return conv_tm(state, inner, _eta_app(t), _eta_app(u))
    if isinstance(t, PLam) or isinstance(u, PLam):
        inner = ctx.push(EIVar())
        return conv_tm(state, inner, _eta_papp(t), _eta_papp(u))
    if isinstance(t, CLam) or isinstance(u, CLam):
        inner = ctx.push(EClock())
        return conv_tm(state, inner, _eta_capp(t), _eta_capp(u))
    if isinstance(t, TickLam) or isinstance(u, TickLam):
        clock = t.clock if isinstance(t, TickLam) else u.clock
        inner = ctx.push(ETick(clock))
        return conv_tm(state, inner, _eta_tapp(t), _eta_tapp(u))
    if isinstance(t, Pair) or isinstance(u, Pair):
        return (conv_tm(state, ctx, Fst(t), Fst(u))
                and conv_tm(state, ctx, Snd(t), Snd(u)))

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
        case (App(f1, a1), App(f2, a2)):
            return (conv_tm(state, ctx, f1, f2)
                    and conv_tm(state, ctx, a1, a2))
        case (Fst(p1), Fst(p2)) | (Snd(p1), Snd(p2)):
            return conv_tm(state, ctx, p1, p2)
        case (PApp(f1, r1), PApp(f2, r2)):
            return conv_tm(state, ctx, f1, f2) and r1 == r2
        case (CApp(f1, k1), CApp(f2, k2)):
            return k1 == k2 and conv_tm(state, ctx, f1, f2)
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
                for _ in range(x.n_args + 2 * x.n_recs):
                    inner = inner.push(EVar(_DUMMY))
                for _ in range(x.n_ivars):
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


def _eta_app(t):
    if isinstance(t, Lam):
        return t.body
    return App(weaken(t, T1), Var(0))


def _eta_papp(t):
    if isinstance(t, PLam):
        return t.body
    return PApp(weaken(t, I1), IVar(0))


def _eta_capp(t):
    if isinstance(t, CLam):
        return t.body
    return CApp(weaken(t, C1), 0)


def _eta_tapp(t):
    if isinstance(t, TickLam):
        return t.body
    return TickApp(weaken(t, K1), TickVar(0))
