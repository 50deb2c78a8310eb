module Graph = Asyncolor_topology.Graph
module Adversary = Asyncolor_kernel.Adversary
module Status = Asyncolor_kernel.Status
module Checker = Asyncolor.Checker
module Claims = Asyncolor.Claims

type violation = { invariant : string; message : string }

type event = {
  time : int;
  activated : int list;
  returned : (int * string) list;
  resets : (int * int) list;
}

type outcome = {
  violations : violation list;
  events : event list;
  outputs : string option array;
  activations : int array;
  steps : int;
  returned : int;
}

let invariant_names =
  [
    "proper";
    "palette";
    "activation-bound";
    "mask-agreement";
    "churn-reinit";
    "churn-fresh-ident";
  ]

(* Pairs the scenario's protocol (clean, or its planted mutant) with the
   claims of the base algorithm: a mutant is judged against the palette
   and bound of the algorithm it breaks. *)
let resolve (sc : Scenario.t) : Claims.entry =
  let bad_mutation m =
    invalid_arg
      (Printf.sprintf "Exec.run: mutation %S does not apply to algorithm %s" m
         (Scenario.algo_name sc.algo))
  in
  match (sc.algo, sc.mutation) with
  | Scenario.A1, None -> Claims.Entry Claims.a1
  | Scenario.A1, Some m -> (
      match Mutation.a1_protocol m with
      | Some (module P) -> Claims.Entry { Claims.a1 with protocol = (module P) }
      | None -> bad_mutation m)
  | Scenario.A2, None -> Claims.Entry Claims.a2
  | Scenario.A2, Some m when Mutation.is_churn m -> (
      (* churn mutants corrupt the recovery machinery in [drive], not the
         protocol: the clean step function runs *)
      match Mutation.find m with
      | Some _ -> Claims.Entry Claims.a2
      | None -> bad_mutation m)
  | Scenario.A2, Some m -> (
      match Mutation.a2_protocol m with
      | Some (module P) -> Claims.Entry { Claims.a2 with protocol = (module P) }
      | None -> bad_mutation m)
  | Scenario.A2s, None -> Claims.Entry Claims.a2s
  | Scenario.A3, None -> Claims.Entry Claims.a3
  | (Scenario.A2s | Scenario.A3), Some m -> bad_mutation m

let mask_of_set set = List.fold_left (fun m p -> m lor (1 lsl p)) 0 set

let run_alg (type o) (c : o Claims.t) (sc : Scenario.t) : outcome =
  let module A = (val c.protocol) in
  let module E = Asyncolor_kernel.Engine.Make (A) in
  let graph = Scenario.build_graph sc.graph in
  let n = Graph.n graph in
  let on_cycle = match sc.graph with Scenario.Cycle _ -> true | _ -> false in
  let violations = ref [] in
  let add invariant message = violations := { invariant; message } :: !violations in
  let churn = sc.Scenario.churn in
  let sched = Array.of_list sc.schedule in
  let len = Array.length sched in
  let down time p =
    List.exists
      (fun (ev : Scenario.churn_event) ->
        ev.Scenario.node = p
        && time >= ev.Scenario.crash_at
        && time < ev.Scenario.recover_at)
      churn
  in
  (* The churn- mutants plant their bug here, in how a recovery event is
     applied; every other mutation leaves the recovery machinery clean. *)
  let apply_reset engine (ev : Scenario.churn_event) =
    match sc.mutation with
    | Some "churn-zombie" -> ()
    | Some "churn-collide" ->
        E.reset engine ev.Scenario.node
          ~ident:(E.ident engine ((ev.Scenario.node + 1) mod n))
    | _ -> E.reset engine ev.Scenario.node ~ident:ev.Scenario.fresh_ident
  in
  (* Replicates [E.run] over the explicit schedule, with churn applied:
     recoveries fire just before their step, crashed processes are
     filtered from activation sets, and the early stop waits for pending
     recoveries (a reset un-returns a process).  With [churn = []] this
     is step-for-step the old [E.run (Adversary.finite sc.schedule)]. *)
  let drive ?(on_reset = fun _ -> ()) engine ~activate =
    let stop = ref false in
    while not !stop do
      let t = E.time engine + 1 in
      if t > len then stop := true
      else if
        E.all_returned engine
        && not
             (List.exists
                (fun (ev : Scenario.churn_event) -> ev.Scenario.recover_at >= t)
                churn)
      then stop := true
      else begin
        List.iter
          (fun (ev : Scenario.churn_event) ->
            if ev.Scenario.recover_at = t then begin
              apply_reset engine ev;
              on_reset ev
            end)
          churn;
        activate (List.filter (fun p -> not (down t p)) sched.(t - 1))
      end
    done
  in
  let engine = E.create ~record_trace:true graph ~idents:sc.idents in
  (* 5-6: the recovery invariants, audited at every recovery event of the
     primary run *)
  let on_reset (ev : Scenario.churn_event) =
    let p = ev.Scenario.node in
    (match E.status engine p with
    | Status.Asleep when E.public engine p = None && E.activations engine p = 0
      ->
        ()
    | st ->
        add "churn-reinit"
          (Printf.sprintf
             "process %d not re-initialised on recovery (status %s, %d \
              activations)"
             p
             (Format.asprintf "%a" (Status.pp A.pp_output) st)
             (E.activations engine p)));
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if E.ident engine u = E.ident engine v then
          add "churn-fresh-ident"
            (Printf.sprintf "processes %d and %d both hold identifier %d" u v
               (E.ident engine u))
      done
    done
  in
  drive ~on_reset engine ~activate:(fun set -> E.activate engine set);
  let run_steps = E.time engine in
  let run_outputs = E.outputs engine in
  let run_activations = Array.init n (fun p -> E.activations engine p) in
  (* 1-2: proper colouring of the returned subgraph + palette membership *)
  let verdict = Claims.check c ~graph ~on_cycle run_outputs in
  let show_out p =
    match run_outputs.(p) with Some o -> c.show o | None -> "⊥"
  in
  if not verdict.Checker.proper then
    add "proper"
      (Printf.sprintf "improper colouring: %s"
         (String.concat ", "
            (List.map
               (fun (u, v) ->
                 Printf.sprintf "edge (%d,%d) both coloured %s" u v (show_out u))
               verdict.Checker.conflicts)));
  if verdict.Checker.off_palette <> [] then
    add "palette"
      (Printf.sprintf "off-palette outputs: %s"
         (String.concat ", "
            (List.map
               (fun p -> Printf.sprintf "p%d=%s" p (show_out p))
               verdict.Checker.off_palette)));
  (* 3: the wait-freedom lemmas as per-process activation bounds.  Only
     for static executions: recovery leaves the ring outside the static
     model (frozen registers of returned neighbours), where the bounds of
     Theorems 3.1/3.11/4.4 are simply not claimed — and demonstrably do
     not hold under lockstep scheduling. *)
  (match c.bound ~n ~on_cycle with
  | Some b when churn = [] ->
      Array.iteri
        (fun p a ->
          if a > b then
            add "activation-bound"
              (Printf.sprintf
                 "process %d performed %d activations (bound %d, %s)" p a b
                 (if Status.is_returned (E.status engine p) then "returned"
                  else "not returned")))
        run_activations
  | _ -> ());
  (* 4: differential agreement between the list ([activate]) and packed
     ([activate_mask]) run-core entry points on the same schedule — churn
     events applied identically on both sides *)
  let e2 = E.create graph ~idents:sc.idents in
  drive e2 ~activate:(fun set -> E.activate_mask e2 (mask_of_set set));
  if E.time e2 <> run_steps then
    add "mask-agreement"
      (Printf.sprintf "mask replay took %d steps, list replay %d" (E.time e2)
         run_steps)
  else begin
    let diverged = ref None in
    for p = n - 1 downto 0 do
      let same_status =
        match (E.status engine p, E.status e2 p) with
        | Status.Asleep, Status.Asleep | Status.Working, Status.Working -> true
        | Status.Returned a, Status.Returned b -> c.equal a b
        | _ -> false
      in
      if (not same_status) || E.activations engine p <> E.activations e2 p then
        diverged := Some p
    done;
    match !diverged with
    | Some p ->
        add "mask-agreement"
          (Printf.sprintf
             "process %d diverges between activate and activate_mask \
              (status %s vs %s, activations %d vs %d)"
             p
             (Format.asprintf "%a" (Status.pp A.pp_output) (E.status engine p))
             (Format.asprintf "%a" (Status.pp A.pp_output) (E.status e2 p))
             (E.activations engine p) (E.activations e2 p))
    | None -> ()
  end;
  let events =
    List.map
      (fun (e : E.event) ->
        {
          time = e.E.time;
          activated = e.E.activated;
          returned = List.map (fun (p, o) -> (p, c.show o)) e.E.returned;
          resets = e.E.resets;
        })
      (E.trace engine)
  in
  {
    violations = List.rev !violations;
    events;
    outputs = Array.map (Option.map c.show) run_outputs;
    activations = run_activations;
    steps = run_steps;
    returned = verdict.Checker.returned;
  }

let run (sc : Scenario.t) : outcome =
  Scenario.validate sc;
  let (Claims.Entry c) = resolve sc in
  run_alg c sc

let fails_invariant sc ~invariant =
  List.exists (fun v -> v.invariant = invariant) (run sc).violations
