(* Algorithm 4 is Algorithm 1 run on an arbitrary topology; only the name
   (for traces) and the palette accounting differ. *)

module P = struct
  include Algorithm1.P

  let name = "algorithm4"
end

module E = Asyncolor_kernel.Engine.Make (P)

let palette_size ~max_degree = Color.pair_palette_size ~budget:max_degree
let in_palette ~max_degree (a, b) = a >= 0 && b >= 0 && a + b <= max_degree

let run ?max_steps g ~idents adv =
  let engine = E.create g ~idents in
  E.run ?max_steps engine adv
