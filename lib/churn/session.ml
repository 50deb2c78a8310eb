module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders
module Status = Asyncolor_kernel.Status
module Idents = Asyncolor_workload.Idents
module Stats = Asyncolor_workload.Stats
module Prng = Asyncolor_util.Prng
module Executor = Asyncolor_util.Executor
module Obs = Asyncolor_obs.Obs
module Checker = Asyncolor.Checker
module Claims = Asyncolor.Claims

(* Only the wait-free cycle algorithms make sense under churn: the
   recovery invariant needs a bound on how long healing may take, and
   Algorithm 2s has none (the symmetric lasso of E13). *)
type algo = A2 | A3

let algo_name = function A2 -> "2" | A3 -> "3"
let algo_of_string = function "2" -> Some A2 | "3" -> Some A3 | _ -> None

(* Planted recovery bugs, each pinned to the detector that must catch it
   (mutation testing for the churn invariant suite, mirroring
   {!Asyncolor_fuzz.Mutation}). *)
type bug = Ident_collide | Skip_reinit | Heal_starve | Spurious_recolor

let bug_name = function
  | Ident_collide -> "ident-collide"
  | Skip_reinit -> "skip-reinit"
  | Heal_starve -> "heal-starve"
  | Spurious_recolor -> "spurious-recolor"

let bug_of_string = function
  | "ident-collide" -> Some Ident_collide
  | "skip-reinit" -> Some Skip_reinit
  | "heal-starve" -> Some Heal_starve
  | "spurious-recolor" -> Some Spurious_recolor
  | _ -> None

let bug_detector = function
  | Ident_collide -> "churn-fresh-ident"
  | Skip_reinit -> "churn-reinit"
  | Heal_starve -> "churn-recovery"
  | Spurious_recolor -> "churn-stability"

let bugs = [ Ident_collide; Skip_reinit; Heal_starve; Spurious_recolor ]

let detector_names =
  [
    "churn-recovery";
    "churn-locality";
    "churn-stability";
    "churn-reinit";
    "churn-fresh-ident";
  ]

type config = {
  algo : algo;
  n : int;
  horizon : int;
  crash_rate : float;
  recover_rate : float;
  burst : int;
  mutant : bug option;
}

let default =
  {
    algo = A2;
    n = 62;
    horizon = 250_000;
    crash_rate = 0.3;
    recover_rate = 0.5;
    burst = 1;
    mutant = None;
  }

let validate_config c =
  if c.n < 3 || c.n > Sys.int_size - 1 then
    invalid_arg
      (Printf.sprintf "Churn: n must lie in [3, %d] (cycle + packed masks)"
         (Sys.int_size - 1));
  if c.horizon < 1 then invalid_arg "Churn: horizon must be positive";
  let rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Churn: %s must lie in [0, 1]" name)
  in
  rate "crash-rate" c.crash_rate;
  rate "recover-rate" c.recover_rate;
  if c.burst < 1 || c.burst > c.n then
    invalid_arg "Churn: burst must lie in [1, n]"

let pp_config ppf c =
  Format.fprintf ppf
    "algo=%s%s n=%d horizon=%d crash-rate=%.3f recover-rate=%.3f burst=%d"
    (algo_name c.algo)
    (match c.mutant with None -> "" | Some b -> "!" ^ bug_name b)
    c.n c.horizon c.crash_rate c.recover_rate c.burst

type violation = { epoch : int; detector : string; message : string }

type result = {
  session : int;
  steps : int;
  activations : int;
  epochs : int;
  crashes : int;
  recoveries : int;
  latencies : int list;
  radii : int list;
  violations : violation list;
}

(* Per-session PRNG stream: a pure function of (campaign seed, session
   index), the same odd-multiplier xor combine as the fuzzer's per-exec
   streams — session [i] runs the same schedule whatever --jobs or
   --exec-policy is, which is the whole determinism argument of the
   campaign. *)
let session_seed ~seed i = seed lxor (i * 0x9E3779B97F4A7C1)

(* Per-(seed, event) stream: the [k]-th churn event draws its internals
   (burst victim choices) from its own stream, so an event consumes no
   draws from the session stream beyond its trigger coin — the schedule
   shape never depends on how many victims an earlier burst considered. *)
let event_seed base k = base lxor ((k + 1) * 0x2545F4914F6CDD1D)

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    incr c;
    m := !m land (!m - 1)
  done;
  !c

(* Ring distance between nodes [a] and [b] on the n-cycle. *)
let ring_dist n a b =
  let d = abs (a - b) in
  min d (n - d)

let claims : algo -> int Claims.t = function
  | A2 -> Claims.a2
  | A3 -> Claims.a3

(* Observability: counters are sharded per domain in the sink, so
   parallel sessions never contend; everything is out-of-band and leaves
   the report bytes untouched. *)
type octx = {
  oc_steps : Obs.Counter.t;
  oc_activations : Obs.Counter.t;
  oc_crashes : Obs.Counter.t;
  oc_recoveries : Obs.Counter.t;
  oc_epochs : Obs.Counter.t;
  oc_violations : Obs.Counter.t;
  og_latency_p99 : Obs.Gauge.t;
}

let make_octx o =
  {
    oc_steps = Obs.counter o "churn.steps";
    oc_activations = Obs.counter o "churn.activations";
    oc_crashes = Obs.counter o "churn.crashes";
    oc_recoveries = Obs.counter o "churn.recoveries";
    oc_epochs = Obs.counter o "churn.epochs";
    oc_violations = Obs.counter o "churn.violations";
    og_latency_p99 = Obs.gauge o "churn.recovery_latency_p99";
  }

(* How long one epoch's phases run.  The churn window is short so quiet
   periods (where the recovery invariant is measurable) dominate the
   horizon; the stability window only needs enough steps to let a
   spurious recolouring surface. *)
let churn_window = 8
let stability_window = 3

(* A session stops early once it has gathered this many violations: a
   finding needs evidence, not an unbounded flood — and some planted bugs
   (heal-starve exempts every recovered node from scheduling, so live
   activations stop accruing entirely) would otherwise never reach their
   activation horizon. *)
let max_violations = 64

let run ?(obs = Obs.disabled) cfg ~seed ~session =
  validate_config cfg;
  let octx = make_octx obs in
  let c = claims cfg.algo in
  let module P = (val c.protocol) in
  let module E = Asyncolor_kernel.Engine.Make (P) in
  let n = cfg.n in
  let graph = Builders.cycle n in
  let universe = max 64 (4 * n) in
  let base = session_seed ~seed session in
  let prng = Prng.create ~seed:base in
  let idents = Idents.random_sparse prng ~n ~universe in
  let engine = E.create graph ~idents in
  let heal_bound = Option.get (c.bound ~n ~on_cycle:true) in
  let check = Claims.check c ~graph ~on_cycle:true in
  let up = Array.make n true in
  (* has this node's current incarnation already been counted as
     returned (latency bookkeeping)? *)
  let counted = Array.make n false in
  (* has this node ever been recovered (only recovered incarnations feed
     the latency histogram; the initial colouring does not)? *)
  let recovered_inc = Array.make n false in
  (* nodes the heal-starve mutant silently starves *)
  let starved = Array.make n false in
  let violations = ref [] in
  let nviol = ref 0 in
  let latencies = ref [] in
  let radii = ref [] in
  let crashes = ref 0 in
  let recoveries = ref 0 in
  let activations = ref 0 in
  let epochs = ref 0 in
  let event_idx = ref 0 in
  let add_violation ~epoch detector message =
    Obs.Counter.incr octx.oc_violations;
    incr nviol;
    violations := { epoch; detector; message } :: !violations
  in
  let check_new_returns () =
    for p = 0 to n - 1 do
      if up.(p) && (not counted.(p)) && Status.is_returned (E.status engine p)
      then begin
        counted.(p) <- true;
        if recovered_inc.(p) then latencies := E.activations engine p :: !latencies
      end
    done
  in
  let step mask =
    (* the heal-starve bug withholds scheduling everywhere, not only in
       the heal phase — "silently never scheduled again" *)
    let mask =
      match cfg.mutant with
      | Some Heal_starve ->
          let m = ref mask in
          for p = 0 to n - 1 do
            if starved.(p) then m := !m land lnot (1 lsl p)
          done;
          !m
      | _ -> mask
    in
    let live = mask land E.unfinished_mask engine in
    E.activate_mask engine mask;
    Obs.Counter.incr octx.oc_steps;
    let did = popcount live in
    activations := !activations + did;
    Obs.Counter.add octx.oc_activations did;
    check_new_returns ()
  in
  (* Recovery event: the engine-side reset plus the bookkeeping the
     detectors audit.  The planted bugs live here — each one breaks the
     recovery machinery, never the protocol. *)
  let recover ~epoch p =
    let fresh_id =
      let live = ref [] in
      for q = n - 1 downto 0 do
        live := E.ident engine q :: !live
      done;
      (* conservative freshness: avoid dead incarnations' identifiers
         too — their registers may still be visible to neighbours *)
      Idents.fresh ~live:!live ~universe
    in
    (match cfg.mutant with
    | Some Ident_collide ->
        (* planted bug: reuse another node's identifier instead (distance
           2, so the collision is global, not a degenerate adjacent pair) *)
        E.reset engine p ~ident:(E.ident engine ((p + 2) mod n))
    | Some Skip_reinit ->
        (* planted bug: declare the node recovered without re-initialising *)
        ()
    | _ -> E.reset engine p ~ident:fresh_id);
    up.(p) <- true;
    counted.(p) <- false;
    recovered_inc.(p) <- true;
    (match cfg.mutant with Some Heal_starve -> starved.(p) <- true | _ -> ());
    incr recoveries;
    Obs.Counter.incr octx.oc_recoveries;
    (* churn-reinit: a recovered node must observably be a fresh process —
       asleep, register back to ⊥, activation counter restarted. *)
    (match E.status engine p with
    | Status.Asleep when E.public engine p = None && E.activations engine p = 0
      ->
        ()
    | _ ->
        add_violation ~epoch "churn-reinit"
          (Printf.sprintf
             "node %d not re-initialised on recovery (status %s, acts %d)" p
             (match E.status engine p with
             | Status.Asleep -> "asleep"
             | Status.Working -> "working"
             | Status.Returned _ -> "returned")
             (E.activations engine p)));
    (* churn-fresh-ident: installed identifiers stay pairwise distinct. *)
    let seen = Hashtbl.create (2 * n) in
    for q = 0 to n - 1 do
      let id = E.ident engine q in
      match Hashtbl.find_opt seen id with
      | Some q0 ->
          add_violation ~epoch "churn-fresh-ident"
            (Printf.sprintf "nodes %d and %d both hold identifier %d" q0 q id)
      | None -> Hashtbl.add seen id q
    done
  in
  let crash ~epoch:_ churned ev =
    (* victim: uniform among up nodes, drawn from the event's own stream *)
    let ups = ref [] in
    for q = n - 1 downto 0 do
      if up.(q) then ups := q :: !ups
    done;
    match !ups with
    | [] -> ()
    | l ->
        let v = List.nth l (Prng.int ev (List.length l)) in
        up.(v) <- false;
        churned.(v) <- true;
        incr crashes;
        Obs.Counter.incr octx.oc_crashes
  in
  (* Quiet-period healing: round-robin singleton activations over the
     unfinished processes — the sequential adversary.  Wait-freedom then
     bounds each process's own activations to return; exceeding that
     per-process bound is the recovery violation.

     Why not synchronous lockstep?  Recovery leaves the ring outside the
     static model (frozen registers of returned neighbours can pin a
     fresh local maximum's [a]-candidate forever), and from there exact
     lockstep can sustain a period-2 oscillation between two adjacent
     fresh processes indefinitely — Algorithm 3 even livelocks
     permanently.  Any asymmetric schedule breaks the cycle in a couple
     of activations; the sequential schedule is the deterministic way to
     guarantee that, and makes the invariant the literal per-process
     wait-freedom statement. *)
  let heal ~epoch =
    let start = Array.init n (fun p -> E.activations engine p) in
    let unfinished p = not (Status.is_returned (E.status engine p)) in
    let give_up = ref false in
    let rr = ref 0 in
    while (not (E.all_returned engine)) && not !give_up do
      let chosen = ref (-1) in
      let tried = ref 0 in
      while !chosen < 0 && !tried < n do
        let p = !rr mod n in
        incr rr;
        incr tried;
        if unfinished p && not starved.(p) then chosen := p
      done;
      if !chosen < 0 then begin
        (* every unfinished process is starved: the healing machinery
           will never schedule them again *)
        give_up := true;
        let stuck = ref [] in
        for p = n - 1 downto 0 do
          if unfinished p then stuck := p :: !stuck
        done;
        add_violation ~epoch "churn-recovery"
          (Printf.sprintf "nodes [%s] are never scheduled again after recovery"
             (String.concat ";" (List.map string_of_int !stuck)))
      end
      else begin
        let p = !chosen in
        step (1 lsl p);
        if unfinished p && E.activations engine p - start.(p) > heal_bound
        then begin
          give_up := true;
          add_violation ~epoch "churn-recovery"
            (Printf.sprintf
               "node %d not returned after %d quiet activations (bound %d)" p
               (E.activations engine p - start.(p))
               heal_bound)
        end
      end
    done;
    (* the coloring the quiet period restored must be proper and on
       palette — the other half of the recovery invariant *)
    if not !give_up then begin
      let verdict = check (E.outputs engine) in
      if not (Checker.ok verdict) then
        add_violation ~epoch "churn-recovery"
          (Format.asprintf "healed coloring invalid: %a" Checker.pp verdict)
    end
  in
  Obs.span obs
    ~args:
      [ ("session", string_of_int session); ("seed", string_of_int seed) ]
    "churn.session"
  @@ fun () ->
  (* Warmup: bring the fresh ring to a full coloring; epoch 0 is the
     initial colouring, not a recovery, so it feeds no latency sample. *)
  heal ~epoch:0;
  (* With a zero crash rate no epoch can ever generate activity, so the
     session is the warmup alone — anything else would spin forever. *)
  let churn_possible = cfg.crash_rate > 0.0 in
  (* the epoch cap is belt-and-braces against zero-progress loops: a
     clean epoch yields far more than one activation, so it never binds
     without a planted bug *)
  let max_epochs = cfg.horizon in
  while
    !activations < cfg.horizon && churn_possible
    && !nviol < max_violations
    && !epochs < max_epochs
  do
    incr epochs;
    Obs.Counter.incr octx.oc_epochs;
    let epoch = !epochs in
    let baseline = E.outputs engine in
    let churned = Array.make n false in
    Obs.span obs ~args:[ ("epoch", string_of_int epoch) ] "churn.epoch"
    @@ fun () ->
    (* -- churn phase: crashes, recoveries and activity interleave -- *)
    for _ = 1 to churn_window do
      if Prng.float prng 1.0 < cfg.crash_rate then begin
        let ev = Prng.create ~seed:(event_seed base !event_idx) in
        incr event_idx;
        for _ = 1 to cfg.burst do
          crash ~epoch churned ev
        done
      end;
      for p = 0 to n - 1 do
        if (not up.(p)) && Prng.float prng 1.0 < cfg.recover_rate then begin
          churned.(p) <- true;
          recover ~epoch p
        end
      done;
      let mask = ref 0 in
      for p = 0 to n - 1 do
        if up.(p) && Prng.bool prng then mask := !mask lor (1 lsl p)
      done;
      step !mask
    done;
    (* -- drain: the epoch's last churn events recover every down node -- *)
    for p = 0 to n - 1 do
      if not up.(p) then begin
        churned.(p) <- true;
        recover ~epoch p
      end
    done;
    (* -- heal: quiet period; the recovery invariant's clock runs here -- *)
    heal ~epoch;
    (* -- repair locality: nobody outside the churn radius recoloured -- *)
    let after = E.outputs engine in
    let any_churn = Array.exists Fun.id churned in
    for q = 0 to n - 1 do
      match baseline.(q) with
      | None -> () (* was not coloured at baseline: not constrained *)
      | Some _ when baseline.(q) = after.(q) -> ()
      | Some _ ->
          let dist =
            if not any_churn then n
            else begin
              let d = ref n in
              for c = 0 to n - 1 do
                if churned.(c) then d := min !d (ring_dist n q c)
              done;
              !d
            end
          in
          radii := dist :: !radii;
          if dist > 0 then
            add_violation ~epoch "churn-locality"
              (Printf.sprintf
                 "node %d recoloured at ring distance %d from the nearest \
                  churned node"
                 q dist)
    done;
    (* -- stability: no churn in flight, so nobody may recolour.  The
       snapshot is compared after every step (not only at the end), so a
       node that recolours and happens to land back on its old colour
       within the window is still caught; [flagged] keeps it one
       violation per node per epoch. -- *)
    let snap = E.outputs engine in
    let flagged = Array.make n false in
    for s = 1 to stability_window do
      (match cfg.mutant with
      | Some Spurious_recolor when epoch = 1 && s = 1 ->
          (* planted bug: an unrecorded reset while no churn is in flight *)
          E.reset engine 0
            ~ident:
              (let live = ref [] in
               for q = n - 1 downto 0 do
                 live := E.ident engine q :: !live
               done;
               Idents.fresh ~live:!live ~universe)
      | _ -> ());
      let mask = ref 0 in
      for p = 0 to n - 1 do
        if Prng.bool prng then mask := !mask lor (1 lsl p)
      done;
      step !mask;
      let now = E.outputs engine in
      for q = 0 to n - 1 do
        if (not flagged.(q)) && snap.(q) <> now.(q) then begin
          flagged.(q) <- true;
          add_violation ~epoch "churn-stability"
            (Printf.sprintf "node %d changed output with no churn in flight" q)
        end
      done
    done;
    (* A stability violation leaves damage behind (the whole point of the
       detector); quietly re-heal so later epochs measure their own churn,
       not the planted bug's wake. *)
    if not (E.all_returned engine) then heal ~epoch
  done;
  let latencies = List.rev !latencies in
  (if Obs.enabled obs && latencies <> [] then
     let s = Stats.summarize latencies in
     Obs.Gauge.set octx.og_latency_p99 s.Stats.p99);
  {
    session;
    steps = E.time engine;
    activations = !activations;
    epochs = !epochs;
    crashes = !crashes;
    recoveries = !recoveries;
    latencies;
    radii = List.rev !radii;
    violations = List.rev !violations;
  }

(* --- campaigns -------------------------------------------------------- *)

type report = {
  seed : int;
  cfg : config;
  sessions : int;
  results : result list;
  total_activations : int;
  total_crashes : int;
  total_recoveries : int;
  latency : Stats.summary option;
  radius : Stats.summary option;
  violations : (int * violation) list;
}

let campaign ?(jobs = 1) ?policy ?(obs = Obs.disabled) cfg ~seed ~sessions () =
  validate_config cfg;
  if sessions < 1 then invalid_arg "Churn: sessions must be positive";
  let results =
    Obs.span obs
      ~args:
        [ ("seed", string_of_int seed); ("sessions", string_of_int sessions) ]
      "churn.campaign"
    @@ fun () ->
    Executor.with_executor ~obs ?policy ~jobs (fun exec ->
        Executor.map exec
          (fun i -> run ~obs cfg ~seed ~session:i)
          (Array.init sessions Fun.id))
  in
  (* merge by session index: the report is a pure function of
     (cfg, seed, sessions) whatever jobs or policy ran it *)
  let results = Array.to_list results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let gather f = List.concat_map f results in
  let summarize = function [] -> None | l -> Some (Stats.summarize l) in
  {
    seed;
    cfg;
    sessions;
    results;
    total_activations = sum (fun r -> r.activations);
    total_crashes = sum (fun r -> r.crashes);
    total_recoveries = sum (fun r -> r.recoveries);
    latency = summarize (gather (fun r -> r.latencies));
    radius = summarize (gather (fun r -> r.radii));
    violations =
      gather (fun r -> List.map (fun v -> (r.session, v)) r.violations);
  }

let pp_summary_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some s -> Stats.pp_summary ppf s

let pp_report ppf r =
  Format.fprintf ppf "@[<v>churn %a seed=%d sessions=%d@," pp_config r.cfg
    r.seed r.sessions;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "session %d: steps=%d activations=%d epochs=%d crashes=%d \
         recoveries=%d violations=%d@,"
        s.session s.steps s.activations s.epochs s.crashes s.recoveries
        (List.length s.violations))
    r.results;
  Format.fprintf ppf
    "total: activations=%d crashes=%d recoveries=%d@,\
     recovery latency (activations): %a@,\
     repair radius: %a@,"
    r.total_activations r.total_crashes r.total_recoveries pp_summary_opt
    r.latency pp_summary_opt r.radius;
  (match r.violations with
  | [] -> Format.fprintf ppf "violations: none"
  | vs ->
      Format.fprintf ppf "violations: %d" (List.length vs);
      List.iter
        (fun (s, v) ->
          Format.fprintf ppf "@,  [s%d e%d %s] %s" s v.epoch v.detector
            v.message)
        vs);
  Format.fprintf ppf "@]"
