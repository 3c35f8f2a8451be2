exception Stopped

type pid = { mutable killed : bool }

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Await : 'a Ivar.t -> 'a Effect.t

let spawn eng ?name:_ f =
  let p = { killed = false } in
  let open Effect.Deep in
  let resume : type a. (a, unit) continuation -> a -> unit =
   fun k v -> if p.killed then discontinue k Stopped else continue k v
  in
  let handler =
    {
      retc = Fun.id;
      exnc = (function Stopped -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
            Some
              (fun (k : (a, unit) continuation) ->
                ignore
                  (Engine.schedule eng ~delay:d (fun () -> resume k ())
                    : Engine.handle))
          | Await iv ->
            Some (fun (k : (a, unit) continuation) -> Ivar.on_full eng iv (resume k))
          | _ -> None);
    }
  in
  ignore
    (Engine.schedule eng ~delay:0.0 (fun () ->
         if not p.killed then match_with f () handler)
      : Engine.handle);
  p

let kill _eng p = p.killed <- true

let sleep d =
  if d < 0.0 then invalid_arg "Proc.sleep: negative duration";
  Effect.perform (Sleep d)

let await iv = Effect.perform (Await iv)
