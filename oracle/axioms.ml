open Fusion_cond
open Fusion_source
open Fusion_cost

type violation = { source : string; cond : Cond.t; description : string }

let default_sizes = [ 0.0; 1.0; 10.0; 100.0; 1000.0 ]

let check ?(set_sizes = default_sizes) (model : Model.t) ~sources ~conds =
  let violations = ref [] in
  let record source cond description =
    violations := { source = Source.name source; cond; description } :: !violations
  in
  let finite v = Float.is_finite v in
  Array.iter
    (fun source ->
      let lq = model.Model.lq_cost source in
      if finite lq && lq < 0.0 then
        record source Cond.True (Printf.sprintf "lq cost is negative (%g)" lq);
      Array.iter
        (fun cond ->
          let sq = model.Model.sq_cost source cond in
          if finite sq && sq < 0.0 then
            record source cond (Printf.sprintf "sq cost is negative (%g)" sq);
          let sjq x = model.Model.sjq_cost source cond x in
          List.iter
            (fun x ->
              let cx = sjq x in
              if finite cx && cx < 0.0 then
                record source cond (Printf.sprintf "sjq cost is negative at |X|=%g" x);
              List.iter
                (fun y ->
                  let cy = sjq y and cxy = sjq (x +. y) in
                  if finite cx && finite cy && finite cxy && cxy > cx +. cy +. 1e-9 then
                    record source cond
                      (Printf.sprintf
                         "subadditivity violated: sjq(%g)=%g > sjq(%g)+sjq(%g)=%g" (x +. y)
                         cxy x y (cx +. cy));
                  if x <= y && finite cx && finite cy && cx > cy +. 1e-9 then
                    record source cond
                      (Printf.sprintf "monotonicity violated: sjq(%g)=%g > sjq(%g)=%g" x cx
                         y cy))
                set_sizes)
            set_sizes)
        conds)
    sources;
  List.rev !violations
