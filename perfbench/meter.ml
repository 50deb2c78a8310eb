(* Measurement primitives shared by every workload: a nanosecond clock,
   allocation counters, the process's resident-set high-water mark, order
   statistics, and per-layer call accumulators.

   The clock is CLOCK_MONOTONIC through bechamel's noalloc stub and
   [Gc.minor_words] is unboxed in native code, so bracketing a call with
   them allocates nothing: a layer's words_per_call is the call's own
   allocation. *)

let now () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

(* Words allocated so far by this domain (and joined domains): minor
   allocations plus those made directly in the major heap. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let prefix = field ^ ":" in
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix line ->
            Scanf.sscanf
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
              " %d" Fun.id
        | _ -> find ()
        | exception End_of_file -> failwith ("no " ^ field ^ " in /proc/self/status")
      in
      find ())

(* VmHWM: the peak resident set, which covers off-heap bigarrays and the
   worker domains' heaps that GC counters miss. *)
let peak_rss_mb () = float_of_int (status_kb "VmHWM") /. 1024.

(* --- order statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [q] in [0, 1]. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest of p90/p99/p99.9 with at least ten samples above it. *)
let well_supported a =
  let n = float_of_int (Array.length a) in
  List.fold_left
    (fun acc (label, q) ->
      if n *. (1. -. q) >= 10. then Some (label, percentile a q) else acc)
    None
    [ ("p90", 0.90); ("p99", 0.99); ("p99.9", 0.999) ]

(* "median=… p99=… n=…" for a record line; a short sample list is printed
   whole, in order. *)
let summary xs =
  let a = sorted xs in
  let tail =
    match well_supported a with
    | Some (label, v) -> Printf.sprintf " %s=%.6g" label v
    | None when List.length xs <= 10 ->
        " values=" ^ String.concat "," (List.map (Printf.sprintf "%.6g") xs)
    | None -> ""
  in
  Printf.sprintf "median=%.6g%s n=%d" (median xs) tail (Array.length a)

(* --- per-layer call accumulators ----------------------------------------- *)

(* Cost of one [now ()] pair, subtracted from every bracketed interval. *)
let clock_overhead_ns =
  lazy
    (let samples =
       List.init 2001 (fun _ ->
           let t0 = now () in
           let t1 = now () in
           Int64.to_float (Int64.sub t1 t0))
     in
     int_of_float (median samples))

(* All-int fields: updating them allocates nothing. *)
type acc = { mutable calls : int; mutable ns : int; mutable words : int }

let acc () = { calls = 0; ns = 0; words = 0 }

(* Charge one call that ran between clock readings [t0]/[t1] and minor-word
   readings [w0]/[w1]. *)
let charge a ~t0 ~t1 ~w0 ~w1 =
  a.calls <- a.calls + 1;
  a.ns <- a.ns + max 0 (Int64.to_int (Int64.sub t1 t0) - Lazy.force clock_overhead_ns);
  a.words <- a.words + int_of_float (w1 -. w0)

let per_call a total =
  if a.calls = 0 then 0. else float_of_int total /. float_of_int a.calls

let ns_per_call a = per_call a a.ns
let words_per_call a = per_call a a.words
let seconds a = float_of_int a.ns /. 1e9

let ratio num den = if den = 0. then 0. else num /. den
