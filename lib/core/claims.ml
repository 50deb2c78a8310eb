module Graph = Asyncolor_topology.Graph

type 'o t = {
  name : string;
  protocol : (module Asyncolor_kernel.Protocol.S with type output = 'o);
  equal : 'o -> 'o -> bool;
  show : 'o -> string;
  palette : graph:Graph.t -> on_cycle:bool -> ('o -> bool) option;
  bound : n:int -> on_cycle:bool -> int option;
}

let show_pair (a, b) = Printf.sprintf "(%d,%d)" a b
let on_cycle_only on_cycle x = if on_cycle then Some x else None
let in_general_palette graph =
  Algorithm2.in_general_palette ~max_degree:(Graph.max_degree graph)

let a1 =
  {
    name = "1";
    protocol = (module Algorithm1.P);
    equal = ( = );
    show = show_pair;
    palette =
      (fun ~graph ~on_cycle ->
        let budget = if on_cycle then 2 else Graph.max_degree graph in
        Some (Color.pair_in_palette ~budget));
    bound = (fun ~n ~on_cycle -> on_cycle_only on_cycle (Algorithm1.activation_bound n));
  }

let a2 =
  {
    name = "2";
    protocol = (module Algorithm2.P);
    equal = Int.equal;
    show = string_of_int;
    palette = (fun ~graph ~on_cycle:_ -> Some (in_general_palette graph));
    bound = (fun ~n ~on_cycle -> on_cycle_only on_cycle (Algorithm2.activation_bound n));
  }

let a2s =
  {
    a2 with
    name = "2s";
    protocol = (module Algorithm2s.P);
    palette = (fun ~graph:_ ~on_cycle -> on_cycle_only on_cycle Algorithm2s.in_palette);
    bound = (fun ~n:_ ~on_cycle:_ -> None);
  }

let a3 =
  {
    a2 with
    name = "3";
    protocol = (module Algorithm3.P);
    palette =
      (fun ~graph ~on_cycle ->
        Some (if on_cycle then Color.in_five else in_general_palette graph));
    bound = (fun ~n ~on_cycle -> on_cycle_only on_cycle (Algorithm3.activation_bound n));
  }

let a4 =
  {
    a1 with
    name = "4";
    protocol = (module Algorithm4.P);
    palette =
      (fun ~graph ~on_cycle:_ ->
        Some (Algorithm4.in_palette ~max_degree:(Graph.max_degree graph)));
  }

type entry = Entry : 'o t -> entry

let all = [ Entry a1; Entry a2; Entry a2s; Entry a3; Entry a4 ]
let find name = List.find_opt (fun (Entry c) -> c.name = name) all

let in_palette c ~graph ~on_cycle =
  match c.palette ~graph ~on_cycle with Some f -> f | None -> fun _ -> true

let check c ~graph ~on_cycle =
  let in_palette = in_palette c ~graph ~on_cycle in
  fun outputs -> Checker.check ~equal:c.equal ~in_palette graph outputs

let check_outputs c ~graph ~on_cycle =
  let check = check c ~graph ~on_cycle in
  fun outputs ->
    let v = check outputs in
    if Checker.ok v then None else Some (Format.asprintf "%a" Checker.pp v)
