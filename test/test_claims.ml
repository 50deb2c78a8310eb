(* Tests for the claims table: every entry's palette and bound agree with
   the per-algorithm primitives they compose, on every small topology and
   for both values of [on_cycle]; plus the pins on what is deliberately
   not claimed. *)

module Claims = Asyncolor.Claims
module Color = Asyncolor.Color
module A1 = Asyncolor.Algorithm1
module A2 = Asyncolor.Algorithm2
module A2s = Asyncolor.Algorithm2s
module A3 = Asyncolor.Algorithm3
module A4 = Asyncolor.Algorithm4
module Graph = Asyncolor_topology.Graph
module Builders = Asyncolor_topology.Builders

let check = Alcotest.check

let topologies =
  List.concat_map
    (fun n ->
      [
        (Printf.sprintf "cycle %d" n, Builders.cycle n);
        (Printf.sprintf "path %d" n, Builders.path n);
        (Printf.sprintf "complete %d" n, Builders.complete n);
        (Printf.sprintf "star %d" n, Builders.star n);
      ])
    [ 3; 4; 5; 6; 7; 8 ]

(* The expected claims, written directly from the per-algorithm
   primitives.  Algorithm 3 off the cycle is the derived claim of
   DESIGN.md: Algorithm 2's colouring component, palette {0..2Δ}. *)
let cycle_bound on_cycle b = if on_cycle then Some b else None

let a1 ~delta ~n ~on_cycle =
  ( Some (Color.pair_in_palette ~budget:(if on_cycle then 2 else delta)),
    cycle_bound on_cycle (A1.activation_bound n) )

let a2 ~delta ~n ~on_cycle =
  ( Some (A2.in_general_palette ~max_degree:delta),
    cycle_bound on_cycle (A2.activation_bound n) )

let a2s ~delta:_ ~n:_ ~on_cycle =
  ((if on_cycle then Some A2s.in_palette else None), None)

let a3 ~delta ~n ~on_cycle =
  ( Some
      (if on_cycle then Color.in_five else A2.in_general_palette ~max_degree:delta),
    cycle_bound on_cycle (A3.activation_bound n) )

let a4 ~delta ~n ~on_cycle =
  ( Some (A4.in_palette ~max_degree:delta),
    cycle_bound on_cycle (A1.activation_bound n) )

let same_claims (type o) (c : o Claims.t) ~expected ~outputs =
  List.iter
    (fun (gname, graph) ->
      let n = Graph.n graph and delta = Graph.max_degree graph in
      List.iter
        (fun on_cycle ->
          let what = Printf.sprintf "%s on %s, on_cycle=%b" c.name gname on_cycle in
          let palette, bound = expected ~delta ~n ~on_cycle in
          check
            Alcotest.(option int)
            (what ^ ": bound") bound (c.bound ~n ~on_cycle);
          match (palette, c.palette ~graph ~on_cycle) with
          | None, None -> ()
          | Some want, Some got ->
              List.iter
                (fun o ->
                  check Alcotest.bool
                    (Printf.sprintf "%s: palette at %s" what (c.show o))
                    (want o) (got o))
                (outputs delta)
          | _ -> Alcotest.failf "%s: palette claimed on one side only" what)
        [ true; false ])
    topologies

(* every output in [-1, 2Δ+2], and every pair of them *)
let ints delta = List.init (2 * delta + 4) (fun i -> i - 1)
let pairs delta =
  List.concat_map (fun a -> List.map (fun b -> (a, b)) (ints delta)) (ints delta)

let test_differential () =
  same_claims Claims.a1 ~expected:a1 ~outputs:pairs;
  same_claims Claims.a2 ~expected:a2 ~outputs:ints;
  same_claims Claims.a2s ~expected:a2s ~outputs:ints;
  same_claims Claims.a3 ~expected:a3 ~outputs:ints;
  same_claims Claims.a4 ~expected:a4 ~outputs:pairs

(* On the cycle itself (Δ = 2) the five-colour palette of Theorems 3.11
   and 4.4 is what Algorithms 2 and 3 claim, whichever way [on_cycle] is
   passed. *)
let test_cycle_five_colours () =
  List.iter
    (fun n ->
      let graph = Builders.cycle n in
      List.iter
        (fun on_cycle ->
          List.iter
            (fun (c : int Claims.t) ->
              let got = Option.get (c.palette ~graph ~on_cycle) in
              List.iter
                (fun o ->
                  check Alcotest.bool
                    (Printf.sprintf "alg %s C%d %d" c.name n o)
                    (Color.in_five o) (got o))
                (ints 2))
            [ Claims.a2; Claims.a3 ])
        [ true; false ])
    [ 3; 5; 8 ]

let test_pins () =
  check
    Alcotest.(list string)
    "entries" [ "1"; "2"; "2s"; "3"; "4" ]
    (List.map (fun (Claims.Entry c) -> c.name) Claims.all);
  List.iter
    (fun (Claims.Entry c) ->
      (match Claims.find c.name with
      | Some (Claims.Entry found) -> check Alcotest.string "find" c.name found.name
      | None -> Alcotest.failf "find %S" c.name);
      for n = 3 to 64 do
        check
          Alcotest.(option int)
          (Printf.sprintf "alg %s: no bound off the cycle (n=%d)" c.name n)
          None
          (c.bound ~n ~on_cycle:false)
      done)
    Claims.all;
  for n = 3 to 64 do
    check
      Alcotest.(option int)
      "alg 2s: never a bound" None
      (Claims.a2s.bound ~n ~on_cycle:true)
  done;
  check Alcotest.bool "find 5" true (Claims.find "5" = None);
  check Alcotest.bool "find empty" true (Claims.find "" = None)

let test_check_outputs () =
  let graph = Builders.cycle 3 in
  let hook = Claims.check_outputs Claims.a1 ~graph ~on_cycle:true in
  check Alcotest.bool "proper, on palette" true
    (hook [| Some (0, 0); Some (1, 0); None |] = None);
  check Alcotest.bool "off palette" true
    (hook [| Some (3, 0); Some (1, 0); None |] <> None);
  check Alcotest.bool "improper" true
    (hook [| Some (1, 0); Some (1, 0); None |] <> None);
  (* Algorithm 2s claims no palette off the cycle: only properness *)
  let v = Claims.check Claims.a2s ~graph ~on_cycle:false [| Some 99; Some 7; Some 0 |] in
  check Alcotest.bool "no palette claimed" true (Asyncolor.Checker.ok v)

let () =
  Alcotest.run "claims"
    [
      ( "claims",
        [
          Alcotest.test_case "palettes and bounds match the primitives" `Quick
            test_differential;
          Alcotest.test_case "five colours on the cycle" `Quick
            test_cycle_five_colours;
          Alcotest.test_case "pins" `Quick test_pins;
          Alcotest.test_case "check_outputs hook" `Quick test_check_outputs;
        ] );
    ]
